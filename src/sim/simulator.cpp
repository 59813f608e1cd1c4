#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "geo/distance.h"
#include "sim/checkpoint.h"
#include "sim/serialize.h"

namespace mcs::sim {

Simulator::Simulator(model::World world,
                     std::unique_ptr<incentive::IncentiveMechanism> mechanism,
                     std::unique_ptr<select::TaskSelector> selector,
                     SimulatorParams params,
                     std::unique_ptr<MobilityModel> mobility)
    : world_(std::move(world)),
      mechanism_(std::move(mechanism)),
      selector_(std::move(selector)),
      params_(params),
      mobility_(mobility ? std::move(mobility)
                         : std::make_unique<StaticHomeMobility>()),
      faults_(params.faults, params.order_seed),
      budget_(params.platform_budget, /*strict=*/false),
      events_(params.record_events),
      plan_memo_(params.memo) {
  MCS_CHECK(mechanism_ != nullptr, "simulator needs a mechanism");
  MCS_CHECK(selector_ != nullptr, "simulator needs a selector");
  MCS_CHECK(params.max_rounds >= 1, "max_rounds must be at least 1");
}

namespace {

// Monotonic wall clock for the opt-in phase timers.
double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Charges the time since `t0` to `phase` and restarts `t0` at the same
// instant, so back-to-back phases leave no untimed gap between their timers.
void lap(double& phase, double& t0) {
  const double now = mono_seconds();
  phase += now - t0;
  t0 = now;
}

}  // namespace

const std::vector<Money>& Simulator::prices() {
  const std::vector<Money>* rows = mechanism_->reward_rows();
  if (rows != nullptr && rows->size() == world_.num_tasks()) return *rows;
  // Id-keyed table: one lookup per task row, by the row's id — ids need
  // not be dense positions.
  const model::TaskStore& ts = world_.task_store();
  price_snapshot_.resize(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    price_snapshot_[i] = mechanism_->reward(ts.id[i]);
  }
  return price_snapshot_;
}

std::vector<select::SelectionInstance> Simulator::peek_instances() {
  MCS_CHECK(next_round_ <= params_.max_rounds, "campaign already over");
  int withdrawn = 0;
  const std::vector<Money>& price = publish_round(next_round_, withdrawn);
  const model::UserStore& us = world_.user_store();
  std::vector<select::SelectionInstance> out(us.size());
  GatherScratch scratch;
  for (std::size_t pos = 0; pos < us.size(); ++pos) {
    gather(static_cast<std::uint32_t>(pos), us.home[pos], price, scratch,
           out[pos]);
  }
  return out;
}

Meters Simulator::grid_cell_size() const {
  const geo::BoundingBox& a = world_.area();
  return std::max(std::max(a.width(), a.height()) / 64.0, 1e-3);
}

const std::vector<Money>& Simulator::publish_round(Round k, int& withdrawn) {
  mechanism_->update_rewards(world_, k);
  const std::vector<Money>& price = prices();
  // A task is open when it still asks for data at a positive price. For
  // round-granularity mechanisms, selections are made against this set and
  // every delivery within the round is honored; intra-round mechanisms
  // reprice before each session, but a task that completes mid-round
  // likewise stays deliverable for the users of this round. A glitch fault
  // withdraws an open task from this round's published set (users cannot
  // select or deliver it); it returns next round.
  const model::TaskStore& ts = world_.task_store();
  withdrawn = 0;
  round_rows_.clear();
  round_points_.clear();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const model::Task& t = world_.tasks()[i];
    if (t.completed() || t.expired_at(k) || price[i] <= 0.0) continue;
    if (faults_.enabled() && faults_.withdraw_task(t.id(), k)) {
      ++withdrawn;
      continue;
    }
    round_rows_.push_back(static_cast<std::uint32_t>(i));
    round_points_.push_back(ts.location[i]);
  }
  // About one open task per cell: a sparse round (20 tasks in the paper's
  // field) would otherwise walk dozens of empty grid rows per query. The
  // hits — and so every instance — are the same at any cell size.
  const geo::BoundingBox& area = world_.area();
  const double per_task_cell = std::sqrt(
      area.width() * area.height() /
      static_cast<double>(std::max<std::size_t>(1, round_rows_.size())));
  round_grid_.rebuild(area, std::max(grid_cell_size(), per_task_cell),
                      round_points_);
  // Sparse-id worlds resolve plan task ids through the store's hash index
  // when the round's tours are walked; warm it here, once per round and
  // serially, so concurrent walkers only ever read a fresh index
  // (IdRowIndex's lazy rebuild is not safe to race).
  if (ts.row_index.built_size != ts.size()) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts.id[i] != static_cast<TaskId>(i)) {
        ts.row_index.rebuild(ts.id);
        break;
      }
    }
  }
  return price;
}

void Simulator::gather(std::uint32_t pos, geo::Point start,
                       const std::vector<Money>& price, GatherScratch& scratch,
                       select::SelectionInstance& inst) const {
  const model::UserStore& us = world_.user_store();
  const model::TaskStore& ts = world_.task_store();
  inst.start = start;
  inst.travel = world_.travel();
  inst.time_budget = us.time_budget[pos];
  inst.candidates.clear();
  const Meters reach = inst.distance_budget();
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const GatherScratch::Query* query = nullptr;
  for (std::size_t i = 0; i < scratch.filled && query == nullptr; ++i) {
    const GatherScratch::Query& q = scratch.queries[i];
    if (same(q.start.x, start.x) && same(q.start.y, start.y) &&
        same(q.reach, reach)) {
      query = &q;
    }
  }
  if (query == nullptr) {
    GatherScratch::Query& q = scratch.queries[scratch.next];
    scratch.next = (scratch.next + 1) % GatherScratch::kSlots;
    scratch.filled = std::min(scratch.filled + 1, GatherScratch::kSlots);
    q.start = start;
    q.reach = reach;
    // An inflated-radius query can only over-collect: the grid's
    // squared-distance hit test and the sqrt-based reach predicate round
    // differently within an ulp. The exact predicate — the one the DP
    // front-end prunes with — then decides membership. round_rows_ is
    // ascending, so sorting rows sorts hits.
    q.rows.clear();
    round_grid_.for_each_in_radius(
        start, reach * (1.0 + 1e-12) + 1e-9, [&](std::int32_t h) {
          q.rows.push_back(round_rows_[static_cast<std::size_t>(h)]);
        });
    std::sort(q.rows.begin(), q.rows.end());
    std::erase_if(q.rows, [&](std::uint32_t row) {
      return geo::euclidean(start, ts.location[row]) > reach;
    });
    query = &q;
  }
  for (const std::uint32_t row : query->rows) {
    if (us.contributed[pos].test(ts.id[row])) continue;
    if (price[row] <= 0.0) continue;
    inst.candidates.push_back({ts.id[row], ts.location[row], price[row]});
  }
}

bool Simulator::all_tasks_closed() const {
  for (const model::Task& t : world_.tasks()) {
    if (!t.completed() && !t.expired_at(next_round_)) return false;
  }
  return true;
}

void Simulator::walk_tour(Round k, std::uint32_t pos,
                          const select::Selection& sel,
                          const std::vector<Money>& price, CommitSegment& seg,
                          RoundMetrics& rm) {
  model::UserStore& us = world_.user_store_mut();
  const model::TaskStore& ts = world_.task_store();
  const bool faults_on = faults_.enabled();
  const UserId uid = us.id[pos];

  // Mid-tour abandonment: the user walks only the first `walked_legs`
  // legs of the planned tour and pays travel for those legs alone.
  const int planned_legs = static_cast<int>(sel.order.size());
  int walked_legs = planned_legs;
  if (faults_on) {
    walked_legs = faults_.legs_completed(uid, k, planned_legs);
    if (walked_legs < planned_legs) ++seg.abandoned;
  }

  Money reward_earned = 0.0;
  Meters walked = 0.0;
  geo::Point at = us.location[pos];
  for (int li = 0; li < walked_legs; ++li) {
    const TaskId id = sel.order[static_cast<std::size_t>(li)];
    const std::uint32_t row = ts.row_of(id);
    MCS_ASSERT(row != model::kNoRow, "planned task id unknown to the world");
    const Meters leg = geo::euclidean(at, ts.location[row]);
    walked += leg;
    at = ts.location[row];
    if (faults_on && faults_.lose_upload(uid, id, k)) {
      // The leg was walked but the upload never arrived: no payment, no
      // task progress, and the user is not marked as a contributor — a
      // later round may retry. The demand indicator keeps asking.
      ++seg.lost;
      seg.legs.push_back({row, uid, 0.0, leg, 0, 0});
      continue;
    }
    const bool corrupted = faults_on && faults_.corrupt_upload(uid, id, k);
    const Money reward = price[row];
    us.contributed[pos].set(id);
    reward_earned += reward;
    seg.paid.add(reward);
    if (corrupted) ++seg.corrupted;
    seg.legs.push_back({row, uid, reward, leg, 1,
                        static_cast<std::uint8_t>(corrupted ? 1 : 0)});
    seg.dirty_rows.set(row);
  }
  us.location[pos] = at;

  // A fully walked tour is charged the selector's own distance (keeps the
  // fault-free path bit-identical whatever accumulation a solver used);
  // an abandoned one pays for the walked prefix only.
  const Money cost = world_.travel().cost_for(
      walked_legs == planned_legs ? sel.distance : walked);
  us.total_reward[pos] += reward_earned;
  us.total_cost[pos] += cost;
  // Profit rows are indexed by the user's *position* in world().users(),
  // not by its id — ids need not be dense.
  rm.user_profit[pos] = reward_earned - cost;
  if (walked_legs > 0) ++seg.active;
}

void Simulator::commit_sessions(Round k,
                                std::span<const std::uint32_t> order,
                                const std::vector<char>& dropped,
                                const std::vector<select::Selection>& plans,
                                const std::vector<char>& feasible,
                                const std::vector<Money>& price,
                                RoundMetrics& rm) {
  const std::size_t n = order.size();
  const model::TaskStore& ts = world_.task_store();

  const int workers =
      plan_pool_ ? static_cast<int>(plan_selectors_.size()) : 1;
  const std::size_t n_segs = std::max<std::size_t>(
      1, std::min<std::size_t>(static_cast<std::size_t>(workers), n));
  std::vector<CommitSegment>& segments = commit_scratch_.segments;
  segments.resize(n_segs);
  for (CommitSegment& seg : segments) seg.clear();

  // Phase A: walk the tours into per-segment effect buffers. Everything a
  // walker writes is either private to its segment or private to its users'
  // rows — segments hold contiguous ranges of `order`, and a user appears
  // in it at most once.
  const auto walk_range = [&](CommitSegment& seg, std::size_t lo,
                              std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const std::uint32_t pos = order[idx];
      if (dropped[pos] != 0) {
        ++seg.dropped;
        continue;
      }
      MCS_ASSERT(feasible[pos] != 0, "selector returned an infeasible tour");
      walk_tour(k, pos, plans[pos], price, seg, rm);
    }
  };

  if (n_segs <= 1 || plan_pool_ == nullptr) {
    walk_range(segments[0], 0, n);
  } else {
    const std::size_t chunk = (n + n_segs - 1) / n_segs;
    for (std::size_t s = 0; s < n_segs; ++s) {
      const std::size_t lo = std::min(n, s * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      if (lo < hi) {
        plan_pool_->submit([&walk_range, &seg = segments[s], lo, hi] {
          walk_range(seg, lo, hi);
        });
      }
    }
    plan_pool_->wait_idle();
  }

  // Phase B: ordered merge — payments, events, wasted travel and fault
  // counters replay in global visit order, bit-identical to the serial
  // interleaving.
  const Money paid_before = budget_.spent();
  merge_commit_segments(segments, k, ts, budget_, events_, rm);
  Money sub_total = 0.0;
  for (const CommitSegment& seg : segments) sub_total += seg.paid.total();
  const Money paid_delta = budget_.spent() - paid_before;
  MCS_ASSERT(std::abs(paid_delta - sub_total) <=
                 1e-6 * std::max(1.0, std::abs(paid_delta)),
             "commit merge payment replay deviates from the sub-accounts");

  // Phase C: task-grouped delivery apply.
  apply_commit_deliveries(segments, k, world_.task_store_mut(),
                          commit_scratch_, plan_pool_.get(), workers);
}

bool Simulator::ensure_plan_workers(int threads) {
  if (plan_pool_ && static_cast<int>(plan_selectors_.size()) == threads) {
    return true;
  }
  plan_selectors_.clear();
  plan_pool_.reset();
  for (int i = 0; i < threads; ++i) {
    std::unique_ptr<select::TaskSelector> c = selector_->clone();
    if (c == nullptr) {
      // Selector predates the clone() hook: plan serially.
      plan_selectors_.clear();
      return false;
    }
    plan_selectors_.push_back(std::move(c));
  }
  plan_pool_ = std::make_unique<ThreadPool>(threads);
  return true;
}

int Simulator::round_worker_count() const {
  if (params_.shards == SimulatorParams::kAutoShards) return resolve_threads(0);
  return params_.shards != 0 ? params_.shards
                             : resolve_threads(params_.plan_threads);
}

void Simulator::run_sessions(Round k, const std::vector<Money>& price,
                             const std::vector<std::uint32_t>& visit_order,
                             RoundMetrics& rm) {
  // Intra-round mechanisms reprice between sessions, so their sessions run
  // one after another at one worker. A selector without clone() cannot fan
  // out either (its scratch arenas are not reentrant): the same loop then
  // runs at one worker on selector_.
  const bool intra_round = mechanism_->updates_within_round();
  int workers = intra_round ? 1 : std::max(round_worker_count(), 1);
  if (workers > 1 && !ensure_plan_workers(workers)) workers = 1;
  const bool pooled_workers = workers > 1;

  const std::size_t n_users = world_.num_users();
  const model::UserStore& us = world_.user_store();
  const bool timed = params_.phase_timers;
  double t0 = timed ? mono_seconds() : 0.0;

  // --- Pre-pass: mobility, dropout and the user's cell key over disjoint
  // position ranges, for every user before the round's first session —
  // whichever mechanism kind prices the round. Each user's draws come from
  // a private substream (mobility_stream_seed), so the result is a pure
  // per-user function — independent of execution order and worker count.
  // Static models (static-home, commute) draw nothing. Mobility models
  // must be stateless under concurrent calls (all shipped ones are);
  // dropout draws are stateless hashes already. The key is (cell << 32 |
  // position), the cell being the grid cell of the user's round-start
  // location.
  const Meters cell = grid_cell_size();
  const geo::BoundingBox& area = world_.area();
  const int nx = std::max(1, static_cast<int>(std::ceil(area.width() / cell)));
  const int ny = std::max(1, static_cast<int>(std::ceil(area.height() / cell)));
  round_dropped_.assign(n_users, 0);
  round_keys_.resize(n_users);
  const auto prepass_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t pos = lo; pos < hi; ++pos) {
      model::User& u = world_.users()[pos];
      Rng rng(mobility_stream_seed(params_.order_seed, k,
                                   static_cast<std::uint32_t>(pos)));
      u.set_location(mobility_->start_of_round(u, k, area, rng));
      if (faults_.enabled() && faults_.drop_user(u.id(), k)) {
        round_dropped_[pos] = 1;
      }
      const geo::Point p = us.location[pos];
      const int cx =
          std::clamp(static_cast<int>((p.x - area.lo.x) / cell), 0, nx - 1);
      const int cy =
          std::clamp(static_cast<int>((p.y - area.lo.y) / cell), 0, ny - 1);
      const std::uint64_t c =
          static_cast<std::uint64_t>(cy) * static_cast<std::uint64_t>(nx) +
          static_cast<std::uint64_t>(cx);
      round_keys_[pos] = (c << 32) | pos;
    }
  };
  // Bucket users by cell: once the keys are sorted every cell is a run of
  // keys, its users in ascending position order — a pure function of the
  // world geometry and the users' locations, whatever the worker count.
  // Pooled, each pre-pass range sorts its own keys and the sorted ranges
  // merge pairwise on the pool. Only the memo tables and the worker
  // partition read the buckets (plans are per-user pure), so one worker
  // without the memo plans the unsorted keys, in position order.
  const bool memo_on = params_.memo.enabled && !intra_round;
  if (pooled_workers && n_users > 1) {
    const std::size_t chunk =
        (n_users + static_cast<std::size_t>(workers) - 1) /
        static_cast<std::size_t>(workers);
    const auto keys = round_keys_.begin();
    for (std::size_t lo = 0; lo < n_users; lo += chunk) {
      const std::size_t hi = std::min(n_users, lo + chunk);
      plan_pool_->submit([&prepass_range, keys, lo, hi] {
        prepass_range(lo, hi);
        std::sort(keys + lo, keys + hi);
      });
    }
    plan_pool_->wait_idle();
    round_merge_.resize(n_users);
    for (std::size_t width = chunk; width < n_users; width *= 2) {
      for (std::size_t lo = 0; lo < n_users; lo += 2 * width) {
        const std::size_t mid = std::min(n_users, lo + width);
        const std::size_t hi = std::min(n_users, lo + 2 * width);
        plan_pool_->submit([this, lo, mid, hi] {
          const auto in = round_keys_.begin();
          std::merge(in + lo, in + mid, in + mid, in + hi,
                     round_merge_.begin() + lo);
        });
      }
      plan_pool_->wait_idle();
      round_keys_.swap(round_merge_);
    }
  } else {
    prepass_range(0, n_users);
    if (memo_on) std::sort(round_keys_.begin(), round_keys_.end());
  }
  if (timed) lap(phase_.prepass, t0);

  // --- Plan phase. Every instance comes from the round's one candidate
  // gather and is solved by this one step, on any worker.
  round_plans_.assign(n_users, select::Selection{});
  round_feasible_.assign(n_users, 1);
  const auto solve = [this](const select::TaskSelector& solver,
                            std::uint32_t pos,
                            const select::SelectionInstance& inst) {
    round_plans_[pos] = solver.select(inst);
    round_feasible_[pos] =
        select::is_feasible(inst, round_plans_[pos]) ? 1 : 0;
  };

  if (intra_round) {
    // Per-session pricing: in visit order, each surviving user is offered
    // freshly repriced tasks (dirty set = the rows the previous session
    // delivered to; a dropped user has no session, so the set carries
    // over), plans at those prices and commits as a one-user slice before
    // the next session is priced.
    std::vector<std::size_t> dirty;
    GatherScratch scratch;
    select::SelectionInstance inst;
    double session_mean_sum = 0.0;
    int priced_sessions = 0;
    for (std::size_t idx = 0; idx < n_users; ++idx) {
      const std::uint32_t pos = visit_order[idx];
      if (round_dropped_[pos] != 0) {
        ++rm.dropped_users;
        continue;
      }
      mechanism_->reprice(world_, k, dirty);
      const std::vector<Money>& session_price = prices();
      // What this session was offered: the round's open tasks at their
      // fresh prices (price 0 = not published).
      double session_sum = 0.0;
      int session_open = 0;
      for (const std::uint32_t row : round_rows_) {
        if (session_price[row] <= 0.0) continue;
        session_sum += session_price[row];
        ++session_open;
      }
      if (session_open > 0) {
        session_mean_sum += session_sum / session_open;
        ++priced_sessions;
      }
      if (timed) lap(phase_.reprice, t0);
      gather(pos, us.location[pos], session_price, scratch, inst);
      solve(*selector_, pos, inst);
      if (timed) lap(phase_.plan, t0);
      commit_sessions(k, {&visit_order[idx], 1}, round_dropped_, round_plans_,
                      round_feasible_, session_price, rm);
      dirty.assign(commit_scratch_.dirty_row_list.begin(),
                   commit_scratch_.dirty_row_list.end());
      if (timed) lap(phase_.commit, t0);
    }
    // The published mean of an intra-round round is the mean over the
    // session prices, not the round-start snapshot.
    if (priced_sessions > 0) {
      rm.mean_open_reward = session_mean_sum / priced_sessions;
    }
    return;
  }

  // Round granularity: contiguous key ranges per worker against the frozen
  // round prices.
  if (memo_on && round_memos_.size() != static_cast<std::size_t>(workers)) {
    round_memos_.clear();
    for (int w = 0; w < workers; ++w) {
      round_memos_.push_back(std::make_unique<select::PlanMemo>(params_.memo));
    }
  }
  const int exact_limit = selector_->exact_candidate_limit();

  const auto plan_range = [&](int w, std::size_t lo, std::size_t hi) {
    const select::TaskSelector& solver =
        pooled_workers ? *plan_selectors_[static_cast<std::size_t>(w)]
                       : *selector_;
    select::PlanMemo* memo =
        memo_on ? round_memos_[static_cast<std::size_t>(w)].get() : nullptr;
    GatherScratch scratch;
    select::SelectionInstance inst;
    std::uint64_t table_cell = ~std::uint64_t{0};
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const std::uint64_t key = round_keys_[idx];
      const auto pos = static_cast<std::uint32_t>(key);
      // One memo table per cell: the table contents depend only on the
      // cell's users (in position order), never on which worker owns the
      // cell — hits, misses and plans are worker-count-invariant.
      if (memo != nullptr && (key >> 32) != table_cell) {
        table_cell = key >> 32;
        memo->begin_table();
      }
      if (round_dropped_[pos] != 0) continue;
      gather(pos, us.location[pos], price, scratch, inst);
      if (memo == nullptr) {
        solve(solver, pos, inst);
        continue;
      }
      // Single-pass memo: the owner of every class precedes its hits in
      // position order within the cell, so classify/solve/publish
      // interleave per user.
      const select::PlanMemo::Ticket ticket = memo->classify(inst, exact_limit);
      switch (ticket.outcome) {
        case select::PlanMemo::Outcome::kOwner:
          solve(solver, pos, inst);
          memo->publish(ticket, round_plans_[pos], round_feasible_[pos] != 0);
          break;
        case select::PlanMemo::Outcome::kExactHit:
          round_plans_[pos] = memo->cached_plan(ticket);
          round_feasible_[pos] = memo->cached_feasible(ticket) ? 1 : 0;
          break;
        case select::PlanMemo::Outcome::kPending: {
          const select::Selection* cached = nullptr;
          if (memo->resolve(ticket, &cached)) {
            round_plans_[pos] = *cached;  // the proven empty tour
            round_feasible_[pos] = 1;
          } else {
            solve(solver, pos, inst);
          }
          break;
        }
      }
    }
  };

  if (pooled_workers) {
    // Worker w starts at the first cell run at or after key index
    // w·U/workers, so no cell is split between two workers (any such
    // partition yields the same campaign; balance only affects wall clock).
    const auto ws = static_cast<std::size_t>(workers);
    std::size_t lo = 0;
    for (std::size_t w = 0; w < ws; ++w) {
      std::size_t hi = n_users;
      if (w + 1 < ws) {
        hi = std::max(lo, (w + 1) * n_users / ws);
        while (hi > 0 && hi < n_users &&
               (round_keys_[hi] >> 32) == (round_keys_[hi - 1] >> 32)) {
          ++hi;
        }
      }
      if (lo < hi) plan_pool_->submit([&plan_range, w, lo, hi] {
        plan_range(static_cast<int>(w), lo, hi);
      });
      lo = hi;
    }
    plan_pool_->wait_idle();
  } else {
    plan_range(0, 0, n_users);
  }

  if (memo_on) {
    // Harvest the workers' counters into the campaign aggregate. Counts are
    // summed, so the result does not depend on which worker owned which
    // cell.
    select::PlanMemoStats agg = plan_memo_.stats();
    for (const auto& m : round_memos_) {
      const select::PlanMemoStats& s = m->stats();
      agg.exact_hits += s.exact_hits;
      agg.fixup_hits += s.fixup_hits;
      agg.misses += s.misses;
      agg.fallbacks += s.fallbacks;
      m->reset_stats();
    }
    plan_memo_.restore_stats(agg);
  }
  if (timed) lap(phase_.plan, t0);

  // --- Commit: the buffered walk/merge/apply pipeline (sim/commit.h) at
  // the frozen round prices every plan of this round was computed against.
  commit_sessions(k, visit_order, round_dropped_, round_plans_,
                  round_feasible_, price, rm);
  if (timed) phase_.commit += mono_seconds() - t0;
}

const RoundMetrics& Simulator::step() {
  MCS_CHECK(next_round_ <= params_.max_rounds, "campaign already over");
  const Round k = next_round_;
  const bool intra_round = mechanism_->updates_within_round();
  const bool timed = params_.phase_timers;

  // (1)+(2) Platform updates and publishes rewards for round k: the
  // round-start neighbor-cache refresh (N_i for the X3 factor), then
  // publish_round() — the Eqs. 2-9 sweep, the open-task scan with its
  // withdrawals and the round task index — and the published mean price:
  // all of it the reprice phase. The refresh recounts in parallel or
  // replays the moves serially, whichever its mover-count cost model says
  // is cheaper (integer-exact either way), on the reprice pool when
  // reprice workers are configured, else on the plan pool of a
  // round-granularity round; the mechanism's sweep shards over the reprice
  // pool only.
  double t0 = timed ? mono_seconds() : 0.0;
  const int reprice_workers = resolve_threads(params_.reprice_threads);
  ThreadPool* refresh_pool = nullptr;
  int refresh_workers = 1;
  if (reprice_workers > 1) {
    if (reprice_pool_ == nullptr || reprice_pool_->size() != reprice_workers) {
      reprice_pool_ = std::make_unique<ThreadPool>(reprice_workers);
    }
    refresh_pool = reprice_pool_.get();
    refresh_workers = reprice_workers;
    mechanism_->set_reprice_workers(reprice_pool_.get(), reprice_workers);
  } else {
    mechanism_->set_reprice_workers(nullptr, 1);
    const int w = intra_round ? 1 : round_worker_count();
    if (w > 1 && ensure_plan_workers(w)) {
      refresh_pool = plan_pool_.get();
      refresh_workers = w;
    }
  }
  world_.refresh_neighbor_cache(refresh_pool, refresh_workers);

  RoundMetrics rm;
  rm.round = k;
  const std::vector<Money>& price = publish_round(k, rm.withdrawn_tasks);
  rm.user_profit.assign(world_.num_users(), 0.0);
  // Round-start snapshot of the published prices. For round-granularity
  // mechanisms these are exactly the prices every user of the round faces;
  // intra-round mechanisms reprice before each session, so run_sessions()
  // re-records their mean from the session prices.
  for (const std::uint32_t row : round_rows_) rm.mean_open_reward += price[row];
  rm.open_tasks = static_cast<int>(round_rows_.size());
  if (rm.open_tasks > 0) rm.mean_open_reward /= rm.open_tasks;

  const long long before = world_.total_received();
  const Money paid_before = budget_.spent();
  if (timed) lap(phase_.reprice, t0);

  // (3)+(4) Every user selects and performs a task set, in a freshly
  // shuffled order each round (positions into world().users()).
  const std::vector<std::uint32_t> order =
      visit_order(params_.order_seed, k, world_.num_users());
  if (timed) phase_.plan += mono_seconds() - t0;
  run_sessions(k, price, order, rm);
  if (params_.memo.enabled && !intra_round) plan_memo_.count_round();

  // (5) Round bookkeeping; the next update_rewards() call recomputes
  // demands from this new state. The sweeps over every task close the
  // round's commit, so they sit in the commit timer.
  if (timed) t0 = mono_seconds();
  rm.new_measurements = static_cast<int>(world_.total_received() - before);
  rm.total_measurements = world_.total_received();
  rm.coverage_pct = coverage_pct(world_);
  rm.completeness_pct = completeness_pct(world_);
  rm.payout = budget_.spent() - paid_before;
  rm.mean_user_profit = mean_of(rm.user_profit);
  if (timed) phase_.commit += mono_seconds() - t0;

  history_.push_back(std::move(rm));
  ++next_round_;
  return history_.back();
}

CampaignMetrics Simulator::run() {
  while (next_round_ <= params_.max_rounds && !all_tasks_closed()) {
    step();
  }
  return summary();
}

CampaignMetrics Simulator::summary() const {
  CampaignMetrics m = summarize(world_, budget_.spent(), budget_.overdraft());
  // Fault accounting lives in the round history (the world only ever sees
  // accepted measurements); fold it into the campaign totals here.
  for (const RoundMetrics& rm : history_) {
    m.dropped_user_rounds += rm.dropped_users;
    m.abandoned_tours += rm.abandoned_tours;
    m.lost_measurements += rm.lost_measurements;
    m.corrupted_measurements += rm.corrupted_measurements;
    m.withdrawn_task_rounds += rm.withdrawn_tasks;
    m.wasted_travel += rm.wasted_travel;
  }
  const select::PlanMemoStats& memo = plan_memo_.stats();
  m.plan_exact_hits = memo.exact_hits;
  m.plan_fixup_hits = memo.fixup_hits;
  m.plan_misses = memo.misses;
  m.plan_fallbacks = memo.fallbacks;
  m.phase_prepass_s = phase_.prepass;
  m.phase_plan_s = phase_.plan;
  m.phase_reprice_s = phase_.reprice;
  m.phase_commit_s = phase_.commit;
  return m;
}

CampaignCheckpoint Simulator::checkpoint() const {
  CampaignCheckpoint c;
  c.params = params_;
  c.next_round = next_round_;
  c.world = world_to_json(world_);
  c.mechanism = mechanism_->name();
  c.mechanism_state = mechanism_->state_to_json();
  c.selector = selector_->name();
  c.mobility = mobility_->name();
  c.budget_spent = budget_.spent_raw();
  c.budget_comp = budget_.compensation();
  c.history = history_;
  c.events = events_.events();
  c.memo_stats = plan_memo_.stats();
  c.phase_prepass_s = phase_.prepass;
  c.phase_plan_s = phase_.plan;
  c.phase_reprice_s = phase_.reprice;
  c.phase_commit_s = phase_.commit;
  return c;
}

Simulator Simulator::resume(
    const CampaignCheckpoint& ckpt,
    std::unique_ptr<incentive::IncentiveMechanism> mechanism,
    std::unique_ptr<select::TaskSelector> selector,
    std::unique_ptr<MobilityModel> mobility) {
  MCS_CHECK(ckpt.version == kCheckpointFormatVersion,
            "unsupported checkpoint format version");
  MCS_CHECK(mechanism != nullptr, "resume needs a mechanism");
  MCS_CHECK(selector != nullptr, "resume needs a selector");
  MCS_CHECK(ckpt.mechanism == mechanism->name(),
            "checkpoint was written by mechanism '" + ckpt.mechanism +
                "', not '" + mechanism->name() + "'");
  MCS_CHECK(ckpt.selector.empty() || ckpt.selector == selector->name(),
            "checkpoint was written with selector '" + ckpt.selector +
                "', not '" + selector->name() + "'");
  // Overlay the serialized pricing state before the first update: a
  // resumed round-granularity mechanism starts the next round exactly
  // where the original's last publish left it.
  mechanism->restore_state(ckpt.mechanism_state);

  Simulator s(world_from_json(ckpt.world), std::move(mechanism),
              std::move(selector), ckpt.params, std::move(mobility));
  MCS_CHECK(ckpt.mobility.empty() || ckpt.mobility == s.mobility_->name(),
            "checkpoint was written with mobility '" + ckpt.mobility +
                "', not '" + std::string(s.mobility_->name()) + "'");
  MCS_CHECK(ckpt.next_round >= 1 &&
                ckpt.next_round <= ckpt.params.max_rounds + 1,
            "checkpoint round cursor out of range");
  MCS_CHECK(ckpt.history.size() ==
                static_cast<std::size_t>(ckpt.next_round - 1),
            "checkpoint history length does not match its round cursor");
  s.budget_.restore(ckpt.budget_spent, ckpt.budget_comp);
  s.events_.restore(ckpt.events);
  s.history_ = ckpt.history;
  s.next_round_ = ckpt.next_round;
  s.plan_memo_.restore_stats(ckpt.memo_stats);
  s.phase_.prepass = ckpt.phase_prepass_s;
  s.phase_.plan = ckpt.phase_plan_s;
  s.phase_.reprice = ckpt.phase_reprice_s;
  s.phase_.commit = ckpt.phase_commit_s;
  return s;
}

}  // namespace mcs::sim
