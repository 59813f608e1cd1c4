// The serial one-user-at-a-time oracle every session-engine equivalence
// suite (plan, shard, commit, plan memo) compares the simulator against.
//
// run_reference() replays a campaign from public APIs only — the world,
// the mechanism, the selector, FaultInjector, BudgetTracker, EventLog,
// Task::add_measurement and the round metrics — with none of the
// simulator's machinery: no gather() and no FrozenGrid (a brute-force scan
// over every task row builds each instance), no worker pool, no plan memo
// and no three-phase commit (every leg is paid, recorded and delivered the
// moment it is walked). Each round it publishes prices and computes the
// open set, moves every user and draws dropout, then runs one session at a
// time in visit order: reprice (intra-round mechanisms only), gather,
// select, walk the tour with its fault draws. The round-start mean price
// is recorded for round-granularity mechanisms, the mean over the session
// prices for intra-round ones — exactly what the simulator records — so
// every witness compares bit for bit.
//
// The oracle shares with the simulator only the definition of its seeded
// streams (mobility_stream_seed and visit_order in sim/mobility.h).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "geo/distance.h"
#include "incentive/budget.h"
#include "incentive/mechanism.h"
#include "model/world.h"
#include "select/plan_memo.h"
#include "select/selector.h"
#include "sim/event_log.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/mobility.h"
#include "sim/serialize.h"
#include "sim/simulator.h"

namespace mcs::sim::serial_reference {

// What a finished campaign is compared by.
struct CampaignRun {
  std::vector<RoundMetrics> rounds;
  Money spent = 0.0;
  // The raw Neumaier words, not just their sum: the merge must reproduce
  // the exact accumulation order, and these two words are its witnesses.
  Money spent_raw = 0.0;
  Money spent_comp = 0.0;
  std::string world_json;
  std::string events_json;  // "[]" unless the run recorded events
  select::PlanMemoStats memo_stats;
};

inline CampaignRun finish(const Simulator& s) {
  CampaignRun out;
  out.rounds = s.history();
  out.spent = s.budget().spent();
  out.spent_raw = s.budget().spent_raw();
  out.spent_comp = s.budget().compensation();
  out.world_json = world_to_json(s.world()).dump(2);
  out.events_json = events_to_json(s.events()).dump();
  out.memo_stats = s.plan_memo_stats();
  return out;
}

// The campaign `Simulator(world, mechanism, selector, params,
// mobility).run()` must produce, at any worker count and with the plan
// memo on or off. `mobility` defaults to static homes.
inline CampaignRun run_reference(
    model::World world,
    std::unique_ptr<incentive::IncentiveMechanism> mechanism,
    std::unique_ptr<select::TaskSelector> selector,
    const SimulatorParams& params,
    std::unique_ptr<MobilityModel> mobility = nullptr) {
  if (mobility == nullptr) mobility = std::make_unique<StaticHomeMobility>();
  const FaultInjector faults(params.faults, params.order_seed);
  incentive::BudgetTracker budget(params.platform_budget, /*strict=*/false);
  EventLog events(params.record_events);
  const bool intra_round = mechanism->updates_within_round();
  const std::size_t n_tasks = world.num_tasks();
  const std::size_t n_users = world.num_users();
  std::unordered_map<TaskId, std::size_t> row_of;
  for (std::size_t row = 0; row < n_tasks; ++row) {
    row_of[world.tasks()[row].id()] = row;
  }
  // The mechanism's published prices, by task row.
  std::vector<Money> price(n_tasks);
  const auto read_prices = [&] {
    const std::vector<Money>* rows = mechanism->reward_rows();
    for (std::size_t row = 0; row < n_tasks; ++row) {
      price[row] = rows != nullptr ? (*rows)[row]
                                   : mechanism->reward(world.tasks()[row].id());
    }
  };
  const auto all_closed = [&](Round k) {
    for (const model::Task& t : world.tasks()) {
      if (!t.completed() && !t.expired_at(k)) return false;
    }
    return true;
  };

  CampaignRun out;
  for (Round k = 1; k <= params.max_rounds && !all_closed(k); ++k) {
    RoundMetrics rm;
    rm.round = k;
    rm.user_profit.assign(n_users, 0.0);

    // Publish: prices, then the open set minus the glitch withdrawals.
    mechanism->update_rewards(world, k);
    read_prices();
    std::vector<char> open(n_tasks, 0);
    for (std::size_t row = 0; row < n_tasks; ++row) {
      const model::Task& t = world.tasks()[row];
      if (t.completed() || t.expired_at(k) || price[row] <= 0.0) continue;
      if (faults.enabled() && faults.withdraw_task(t.id(), k)) {
        ++rm.withdrawn_tasks;
        continue;
      }
      open[row] = 1;
      rm.mean_open_reward += price[row];
      ++rm.open_tasks;
    }
    if (rm.open_tasks > 0) rm.mean_open_reward /= rm.open_tasks;
    const long long received_before = world.total_received();
    const Money paid_before = budget.spent();

    // Every user moves and draws dropout before the first session.
    std::vector<char> dropped(n_users, 0);
    for (std::size_t pos = 0; pos < n_users; ++pos) {
      model::User& u = world.users()[pos];
      Rng rng(mobility_stream_seed(params.order_seed, k,
                                   static_cast<std::uint32_t>(pos)));
      u.set_location(mobility->start_of_round(u, k, world.area(), rng));
      dropped[pos] = faults.enabled() && faults.drop_user(u.id(), k) ? 1 : 0;
    }

    std::vector<std::size_t> dirty;  // rows the last session delivered to
    double session_mean_sum = 0.0;
    int priced_sessions = 0;
    for (const std::uint32_t pos :
         visit_order(params.order_seed, k, n_users)) {
      if (dropped[pos] != 0) {
        ++rm.dropped_users;
        continue;
      }
      model::User& u = world.users()[pos];
      if (intra_round) {
        mechanism->reprice(world, k, dirty);
        read_prices();
        double sum = 0.0;
        int priced = 0;
        for (std::size_t row = 0; row < n_tasks; ++row) {
          if (open[row] == 0 || price[row] <= 0.0) continue;
          sum += price[row];
          ++priced;
        }
        if (priced > 0) {
          session_mean_sum += sum / priced;
          ++priced_sessions;
        }
      }

      // Brute-force gather: every open, positively priced task row within
      // the travel-distance budget the user has not contributed to.
      select::SelectionInstance inst;
      inst.start = u.location();
      inst.travel = world.travel();
      inst.time_budget = u.time_budget();
      const Meters reach = inst.distance_budget();
      for (std::size_t row = 0; row < n_tasks; ++row) {
        const model::Task& t = world.tasks()[row];
        if (open[row] == 0 || price[row] <= 0.0) continue;
        if (geo::euclidean(inst.start, t.location()) > reach) continue;
        if (u.has_contributed(t.id())) continue;
        inst.candidates.push_back({t.id(), t.location(), price[row]});
      }
      const select::Selection sel = selector->select(inst);
      EXPECT_TRUE(select::is_feasible(inst, sel)) << "round " << k;

      // Walk the tour: abandonment cuts it short; each walked leg is paid,
      // recorded and delivered at once, a lost upload only recorded.
      const int planned = static_cast<int>(sel.order.size());
      const int walked_legs =
          faults.enabled() ? faults.legs_completed(u.id(), k, planned)
                           : planned;
      if (walked_legs < planned) ++rm.abandoned_tours;
      Money earned = 0.0;
      Meters walked = 0.0;
      geo::Point at = u.location();
      dirty.clear();
      for (int li = 0; li < walked_legs; ++li) {
        const TaskId id = sel.order[static_cast<std::size_t>(li)];
        const std::size_t row = row_of.at(id);
        model::Task& t = world.tasks()[row];
        const Meters leg = geo::euclidean(at, t.location());
        walked += leg;
        at = t.location();
        if (faults.enabled() && faults.lose_upload(u.id(), id, k)) {
          ++rm.lost_measurements;
          rm.wasted_travel += leg;
          events.record({k, u.id(), id, 0.0, leg, /*accepted=*/false});
          continue;
        }
        const bool corrupted =
            faults.enabled() && faults.corrupt_upload(u.id(), id, k);
        if (corrupted) ++rm.corrupted_measurements;
        budget.pay(price[row]);
        events.record(
            {k, u.id(), id, price[row], leg, /*accepted=*/true, corrupted});
        t.add_measurement(u.id(), k, price[row]);
        u.mark_contributed(id);
        earned += price[row];
        dirty.push_back(row);
      }
      std::sort(dirty.begin(), dirty.end());
      u.set_location(at);
      const Money cost = world.travel().cost_for(
          walked_legs == planned ? sel.distance : walked);
      u.add_earnings(earned, cost);
      rm.user_profit[pos] = earned - cost;
      if (walked_legs > 0) ++rm.active_users;
    }
    if (intra_round && priced_sessions > 0) {
      rm.mean_open_reward = session_mean_sum / priced_sessions;
    }

    rm.new_measurements =
        static_cast<int>(world.total_received() - received_before);
    rm.total_measurements = world.total_received();
    rm.coverage_pct = coverage_pct(world);
    rm.completeness_pct = completeness_pct(world);
    rm.payout = budget.spent() - paid_before;
    rm.mean_user_profit = mean_of(rm.user_profit);
    out.rounds.push_back(std::move(rm));
  }
  out.spent = budget.spent();
  out.spent_raw = budget.spent_raw();
  out.spent_comp = budget.compensation();
  out.world_json = world_to_json(world).dump(2);
  out.events_json = events_to_json(events).dump();
  return out;
}

// The campaign run through the oracle when `reference` is set, else
// through the simulator.
inline CampaignRun run(bool reference, model::World world,
                       std::unique_ptr<incentive::IncentiveMechanism> mechanism,
                       std::unique_ptr<select::TaskSelector> selector,
                       const SimulatorParams& params,
                       std::unique_ptr<MobilityModel> mobility = nullptr) {
  if (reference) {
    return run_reference(std::move(world), std::move(mechanism),
                         std::move(selector), params, std::move(mobility));
  }
  Simulator s(std::move(world), std::move(mechanism), std::move(selector),
              params, std::move(mobility));
  s.run();
  return finish(s);
}

// Equality of two (possibly huge) serialized witnesses. On a mismatch it
// reports only the first differing line — its number, the column and both
// lines, clipped to a window around the column — instead of gtest's full
// line diff, which on a few-thousand-user world costs gigabytes.
inline ::testing::AssertionResult same_text(const std::string& expected,
                                            const std::string& actual) {
  if (expected == actual) return ::testing::AssertionSuccess();
  const std::size_t n = std::min(expected.size(), actual.size());
  std::size_t at = 0;
  while (at < n && expected[at] == actual[at]) ++at;
  // The common prefix ends on the same line in both strings.
  const std::size_t nl = at == 0 ? std::string::npos : expected.rfind('\n', at - 1);
  const std::size_t start = nl == std::string::npos ? 0 : nl + 1;
  const long line = 1 + std::count(expected.begin(),
                                   expected.begin() + static_cast<long>(start),
                                   '\n');
  constexpr std::size_t kBefore = 60;
  constexpr std::size_t kWidth = 160;
  const std::size_t from = at - std::min(at - start, kBefore);
  const auto clip = [&](const std::string& text) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    return text.substr(from, std::min(end - from, kWidth));
  };
  return ::testing::AssertionFailure()
         << "first difference at line " << line << ", column "
         << (at - start + 1) << "\n  expected: " << clip(expected)
         << "\n  actual:   " << clip(actual);
}

// Every witness bit-equal, mean_open_reward included. Memo statistics are
// not compared (the oracle never memoizes; suites that pin them compare
// them separately).
inline void expect_bit_identical(const CampaignRun& ref, const CampaignRun& b) {
  EXPECT_TRUE(same_text(ref.world_json, b.world_json)) << "world_json";
  EXPECT_EQ(ref.spent, b.spent);
  EXPECT_EQ(ref.spent_raw, b.spent_raw);
  EXPECT_EQ(ref.spent_comp, b.spent_comp);
  EXPECT_TRUE(same_text(ref.events_json, b.events_json)) << "events_json";
  ASSERT_EQ(ref.rounds.size(), b.rounds.size());
  for (std::size_t k = 0; k < ref.rounds.size(); ++k) {
    EXPECT_EQ(rounds_to_json({ref.rounds[k]}).dump(),
              rounds_to_json({b.rounds[k]}).dump())
        << "round " << k;
  }
}

}  // namespace mcs::sim::serial_reference
