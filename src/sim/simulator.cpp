#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/error.h"
#include "common/hash.h"
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
      mobility_rng_(params.order_seed ^ 0xb0b1b2b3b4b5b6b7ULL),
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

std::vector<bool> open_tasks(const model::World& world,
                             const std::vector<Money>& price, Round k) {
  std::vector<bool> open(world.num_tasks(), false);
  for (std::size_t i = 0; i < world.num_tasks(); ++i) {
    const model::Task& t = world.tasks()[i];
    open[i] = !t.completed() && !t.expired_at(k) && price[i] > 0.0;
  }
  return open;
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
  const Round k = next_round_;
  mechanism_->update_rewards(world_, k);
  const std::vector<Money>& price = prices();
  std::vector<bool> open = open_tasks(world_, price, k);
  apply_withdrawals(open, k);
  index_round_tasks(open);
  const model::UserStore& us = world_.user_store();
  std::vector<select::SelectionInstance> out(us.size());
  std::vector<std::int32_t> hits;
  for (std::size_t pos = 0; pos < us.size(); ++pos) {
    gather(static_cast<std::uint32_t>(pos), us.home[pos], price, hits,
           out[pos]);
  }
  return out;
}

Meters Simulator::grid_cell_size() const {
  const geo::BoundingBox& a = world_.area();
  return std::max(std::max(a.width(), a.height()) / 64.0, 1e-3);
}

void Simulator::index_round_tasks(const std::vector<bool>& open) {
  const model::TaskStore& ts = world_.task_store();
  round_rows_.clear();
  round_points_.clear();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!open[i]) continue;
    round_rows_.push_back(static_cast<std::uint32_t>(i));
    round_points_.push_back(ts.location[i]);
  }
  round_grid_.rebuild(world_.area(), grid_cell_size(), round_points_);
}

void Simulator::gather(std::uint32_t pos, geo::Point start,
                       const std::vector<Money>& price,
                       std::vector<std::int32_t>& hits,
                       select::SelectionInstance& inst) const {
  const model::UserStore& us = world_.user_store();
  const model::TaskStore& ts = world_.task_store();
  inst.start = start;
  inst.travel = world_.travel();
  inst.time_budget = us.time_budget[pos];
  inst.candidates.clear();
  // An inflated-radius query can only over-collect: the grid's
  // squared-distance hit test and the sqrt-based reach predicate round
  // differently within an ulp. The exact predicate — the one the DP
  // front-end prunes with — then decides membership, in task-row order.
  const Meters reach = inst.distance_budget();
  hits.clear();
  round_grid_.for_each_in_radius(
      start, reach * (1.0 + 1e-12) + 1e-9,
      [&hits](std::int32_t h) { hits.push_back(h); });
  std::sort(hits.begin(), hits.end());
  for (const std::int32_t h : hits) {
    const std::uint32_t row = round_rows_[static_cast<std::size_t>(h)];
    if (geo::euclidean(start, ts.location[row]) > reach) continue;
    if (us.contributed[pos].test(ts.id[row])) continue;
    if (price[row] <= 0.0) continue;
    inst.candidates.push_back({ts.id[row], ts.location[row], price[row]});
  }
}

int Simulator::apply_withdrawals(std::vector<bool>& open, Round k) const {
  if (!faults_.enabled()) return 0;
  // Platform glitch: an open task vanishes from this round's published set
  // (users cannot select or deliver it); it returns next round.
  int withdrawn = 0;
  for (std::size_t i = 0; i < open.size(); ++i) {
    if (!open[i]) continue;
    if (faults_.withdraw_task(world_.tasks()[i].id(), k)) {
      open[i] = false;
      ++withdrawn;
    }
  }
  return withdrawn;
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

void Simulator::merge_and_apply(Round k, RoundMetrics& rm) {
  // Phase B: ordered merge — payments, events, wasted travel and fault
  // counters replay in global visit order, bit-identical to the serial
  // interleaving.
  const std::vector<CommitSegment>& segments = commit_scratch_.segments;
  const Money paid_before = budget_.spent();
  merge_commit_segments(segments, k, world_.task_store(), budget_, events_, rm);
  Money sub_total = 0.0;
  for (const CommitSegment& seg : segments) sub_total += seg.paid.total();
  const Money paid_delta = budget_.spent() - paid_before;
  MCS_ASSERT(std::abs(paid_delta - sub_total) <=
                 1e-6 * std::max(1.0, std::abs(paid_delta)),
             "commit merge payment replay deviates from the sub-accounts");

  // Phase C: task-grouped delivery apply.
  const int workers =
      plan_pool_ ? static_cast<int>(plan_selectors_.size()) : 1;
  apply_commit_deliveries(segments, k, world_.task_store_mut(),
                          commit_scratch_, plan_pool_.get(), workers);
}

void Simulator::commit_sessions(Round k,
                                const std::vector<std::uint32_t>& visit_order,
                                const std::vector<char>& dropped,
                                const std::vector<select::Selection>& plans,
                                const std::vector<char>& feasible,
                                const std::vector<Money>& price,
                                RoundMetrics& rm) {
  const std::size_t n = visit_order.size();
  const model::TaskStore& ts = world_.task_store();

  // Sparse-id worlds resolve plan task ids through the store's hash index;
  // warm it here, serially, so the concurrent walkers only ever read a
  // fresh index (IdRowIndex's lazy rebuild is not safe to race).
  if (ts.row_index.built_size != ts.size()) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts.id[i] != static_cast<TaskId>(i)) {
        ts.row_index.rebuild(ts.id);
        break;
      }
    }
  }

  const int workers =
      plan_pool_ ? static_cast<int>(plan_selectors_.size()) : 1;
  const std::size_t n_segs = std::max<std::size_t>(
      1, std::min<std::size_t>(static_cast<std::size_t>(workers), n));
  commit_scratch_.segments.resize(n_segs);
  for (CommitSegment& seg : commit_scratch_.segments) seg.clear();

  // Phase A: walk the tours into per-segment effect buffers. Everything a
  // walker writes is either private to its segment or private to its users'
  // rows — segments hold contiguous visit-order ranges, and a user appears
  // in the visit order exactly once.
  const auto walk_range = [&](CommitSegment& seg, std::size_t lo,
                              std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const std::uint32_t pos = visit_order[idx];
      if (dropped[pos] != 0) {
        ++seg.dropped;
        continue;
      }
      MCS_ASSERT(feasible[pos] != 0, "selector returned an infeasible tour");
      walk_tour(k, pos, plans[pos], price, seg, rm);
    }
  };

  if (n_segs <= 1 || plan_pool_ == nullptr) {
    walk_range(commit_scratch_.segments[0], 0, n);
  } else {
    const std::size_t chunk = (n + n_segs - 1) / n_segs;
    for (std::size_t s = 0; s < n_segs; ++s) {
      const std::size_t lo = std::min(n, s * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      if (lo < hi) {
        plan_pool_->submit(
            [&walk_range, &seg = commit_scratch_.segments[s], lo, hi] {
              walk_range(seg, lo, hi);
            });
      }
    }
    plan_pool_->wait_idle();
  }
  merge_and_apply(k, rm);
}

void Simulator::run_sessions_intra_round(
    Round k, const std::vector<bool>& open,
    const std::vector<std::uint32_t>& visit_order, RoundMetrics& rm,
    double& session_mean_sum, int& priced_sessions) {
  // Task positions the previous session touched: between two sessions of
  // one round only those tasks gained measurements, so the mechanism can
  // reprice incrementally instead of rescanning the whole task set.
  const bool timed = params_.phase_timers;
  double t0 = timed ? mono_seconds() : 0.0;
  std::vector<std::size_t> dirty;
  select::SelectionInstance inst;
  std::vector<std::int32_t> hits;
  commit_scratch_.segments.resize(1);
  CommitSegment& seg = commit_scratch_.segments[0];
  for (const std::uint32_t pos : visit_order) {
    model::User& u = world_.users()[pos];
    // Mobility advances for every user, dropped or not (the worker is
    // somewhere that round; they just do not work) — fault draws therefore
    // never shift the mobility stream.
    u.set_location(
        mobility_->start_of_round(u, k, world_.area(), mobility_rng_));

    const bool drop = faults_.enabled() && faults_.drop_user(u.id(), k);
    if (timed) lap(phase_.prepass, t0);
    if (drop) {
      // Offline this round: no session (so intra-round mechanisms see no
      // repricing event either), no travel, zero profit. The dirty set
      // carries over to the next surviving session.
      ++rm.dropped_users;
      continue;
    }

    mechanism_->reprice(world_, k, dirty);
    const std::vector<Money>& price = prices();
    // What this session was actually offered: the round's open tasks at
    // their freshly published prices (price 0 = withdrawn, not published).
    double session_sum = 0.0;
    int session_open = 0;
    for (std::size_t i = 0; i < world_.num_tasks(); ++i) {
      if (!open[i] || price[i] <= 0.0) continue;
      session_sum += price[i];
      ++session_open;
    }
    if (session_open > 0) {
      session_mean_sum += session_sum / session_open;
      ++priced_sessions;
    }
    if (timed) lap(phase_.reprice, t0);

    gather(pos, u.location(), price, hits, inst);
    const select::Selection sel = selector_->select(inst);
    MCS_ASSERT(select::is_feasible(inst, sel),
               "selector returned an infeasible tour");
    if (timed) lap(phase_.plan, t0);
    // The session commits as a one-user segment at the prices it was just
    // offered; the rows it delivered to become the next reprice's dirty set.
    seg.clear();
    walk_tour(k, pos, sel, price, seg, rm);
    merge_and_apply(k, rm);
    dirty.assign(commit_scratch_.dirty_row_list.begin(),
                 commit_scratch_.dirty_row_list.end());
    if (timed) lap(phase_.commit, t0);
  }
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

void Simulator::run_sessions_batched(
    Round k, const std::vector<Money>& price,
    const std::vector<std::uint32_t>& visit_order, RoundMetrics& rm) {
  // A selector without clone() cannot fan out (its scratch arenas are not
  // reentrant): the same loop then runs at one worker on selector_.
  int workers = std::max(round_worker_count(), 1);
  if (workers > 1 && !ensure_plan_workers(workers)) workers = 1;
  const bool pooled_workers = workers > 1;

  const std::size_t n_users = world_.num_users();
  const model::UserStore& us = world_.user_store();
  const bool timed = params_.phase_timers;
  double t0 = timed ? mono_seconds() : 0.0;

  // --- Pre-pass: mobility, dropout and the user's cell key over disjoint
  // position ranges. Each user's draws come from a private counter-based
  // substream seeded from (order_seed, round, position), so the result is
  // a pure per-user function — independent of execution order and worker
  // count. Static models (static-home, commute) draw nothing. Mobility
  // models must be stateless under concurrent calls (all shipped ones
  // are); dropout draws are stateless hashes already. The key is
  // (cell << 32 | position), the cell being the grid cell of the user's
  // round-start location.
  const Meters cell = grid_cell_size();
  const geo::BoundingBox& area = world_.area();
  const int nx = std::max(1, static_cast<int>(std::ceil(area.width() / cell)));
  const int ny = std::max(1, static_cast<int>(std::ceil(area.height() / cell)));
  round_dropped_.assign(n_users, 0);
  round_keys_.resize(n_users);
  const std::uint64_t round_base =
      hash_combine(mix64(params_.order_seed ^ 0x5ba9d0c4f1e2a687ULL),
                   static_cast<std::uint64_t>(k));
  const auto prepass_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t pos = lo; pos < hi; ++pos) {
      model::User& u = world_.users()[pos];
      Rng rng(hash_combine(round_base, static_cast<std::uint64_t>(pos)));
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
  const bool memo_on = params_.memo.enabled;
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

  // --- Plan phase: contiguous key ranges per worker, every instance from
  // the round's one candidate gather.
  round_plans_.assign(n_users, select::Selection{});
  round_feasible_.assign(n_users, 1);
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
    std::vector<std::int32_t> hits;
    select::SelectionInstance inst;
    const auto solve = [&](std::uint32_t pos) {
      round_plans_[pos] = solver.select(inst);
      round_feasible_[pos] =
          select::is_feasible(inst, round_plans_[pos]) ? 1 : 0;
    };
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
      gather(pos, us.location[pos], price, hits, inst);
      if (memo == nullptr) {
        solve(pos);
        continue;
      }
      // Single-pass memo: the owner of every class precedes its hits in
      // position order within the cell, so classify/solve/publish
      // interleave per user.
      const select::PlanMemo::Ticket ticket = memo->classify(inst, exact_limit);
      switch (ticket.outcome) {
        case select::PlanMemo::Outcome::kOwner:
          solve(pos);
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
            solve(pos);
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
  // round-start neighbor-cache refresh (N_i for the X3 factor), the Eqs.
  // 2-9 sweep, the open-task scan with its withdrawals and the published
  // mean price — all of it the reprice phase. The refresh recounts in
  // parallel or replays the moves serially, whichever its mover-count cost
  // model says is cheaper (integer-exact either way), on the reprice pool
  // when reprice workers are configured, else on the plan pool of a
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
  mechanism_->update_rewards(world_, k);
  const std::vector<Money>& price = prices();

  // Which tasks are open when the round begins. For round-granularity
  // mechanisms, selections are made against this snapshot and every
  // delivery within the round is honored; intra-round mechanisms reprice
  // before each user session, but a task that completes mid-round likewise
  // stays deliverable for the users of this round. Glitched tasks leave the
  // set before anything is published.
  std::vector<bool> open = open_tasks(world_, price, k);

  RoundMetrics rm;
  rm.round = k;
  rm.withdrawn_tasks = apply_withdrawals(open, k);
  rm.user_profit.assign(world_.num_users(), 0.0);
  // Round-start snapshot of the published prices. For round-granularity
  // mechanisms these are exactly the prices every user of the round faces;
  // intra-round mechanisms reprice before each session, so their published
  // mean is re-recorded from the session prices below.
  for (std::size_t i = 0; i < world_.num_tasks(); ++i) {
    if (!open[i]) continue;
    rm.mean_open_reward += price[i];
    ++rm.open_tasks;
  }
  if (rm.open_tasks > 0) rm.mean_open_reward /= rm.open_tasks;

  // Intra-round price recording: mean published price per user session,
  // averaged over the sessions that had at least one priced task.
  double session_mean_sum = 0.0;
  int priced_sessions = 0;

  const long long before = world_.total_received();
  const Money paid_before = budget_.spent();
  if (timed) lap(phase_.reprice, t0);

  // Users take their sessions in a shuffled order each round. The order
  // holds positions into world().users() (iota over 0..U-1 and the
  // Fisher–Yates swaps are value-independent, so for dense ids this is the
  // same permutation the id-typed order produced).
  std::vector<std::uint32_t> visit_order(world_.num_users());
  std::iota(visit_order.begin(), visit_order.end(), std::uint32_t{0});
  Rng order_rng(params_.order_seed +
                0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k));
  order_rng.shuffle(visit_order);

  // (3)+(4) Every user selects and performs a task set. Every loop builds
  // its instances with gather() from one task index per round, built here
  // after the withdrawals — planning work, so it sits in the plan timer
  // with the visit-order shuffle above.
  index_round_tasks(open);
  if (timed) phase_.plan += mono_seconds() - t0;
  if (intra_round) {
    run_sessions_intra_round(k, open, visit_order, rm, session_mean_sum,
                             priced_sessions);
  } else {
    run_sessions_batched(k, price, visit_order, rm);
  }
  if (params_.memo.enabled && !intra_round) plan_memo_.count_round();

  // For intra-round mechanisms the round-start snapshot is not what users
  // were offered; replace it with the mean over the session prices.
  if (intra_round && priced_sessions > 0) {
    rm.mean_open_reward = session_mean_sum / priced_sessions;
  }

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
  c.mobility_rng = mobility_rng_.state();
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
  s.mobility_rng_.restore_state(ckpt.mobility_rng);
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
