#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "geo/distance.h"
#include "incentive/fixed_mechanism.h"
#include "incentive/on_demand_mechanism.h"
#include "select/selector.h"
#include "sim/scenario.h"

namespace mcs::sim {
namespace {

using incentive::DemandIndicator;
using incentive::DemandLevelScale;
using incentive::FixedMechanism;
using incentive::OnDemandMechanism;
using incentive::RewardRule;

model::World tiny_world() {
  model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 200.0);
  w.add_task({100, 0}, 5, 2);   // near user homes
  w.add_task({900, 900}, 5, 2); // far corner
  w.add_user({0, 0}, 600.0);    // can walk 1200 m per round
  w.add_user({50, 0}, 600.0);
  w.add_user({0, 50}, 600.0);
  return w;
}

Simulator make_sim(model::World world, SimulatorParams sp = {}) {
  auto mech = std::make_unique<OnDemandMechanism>(
      DemandIndicator::with_paper_defaults(), DemandLevelScale(5),
      RewardRule(0.5, 0.5, 5));
  auto sel = select::make_selector(select::SelectorKind::kDp);
  return Simulator(std::move(world), std::move(mech), std::move(sel), sp);
}

TEST(Simulator, StepProducesRoundMetrics) {
  Simulator s = make_sim(tiny_world());
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.round, 1);
  EXPECT_GT(rm.new_measurements, 0);
  EXPECT_EQ(rm.total_measurements, rm.new_measurements);
  EXPECT_EQ(rm.user_profit.size(), 3u);
  EXPECT_EQ(s.current_round(), 1);
}

TEST(Simulator, UsersNeverRepeatATask) {
  Simulator s = make_sim(tiny_world());
  for (int k = 0; k < 5; ++k) s.step();
  for (const model::Task& t : s.world().tasks()) {
    std::set<UserId> contributors;
    for (const auto& m : t.measurements()) {
      EXPECT_TRUE(contributors.insert(m.user).second)
          << "user " << m.user << " contributed twice to task " << t.id();
    }
  }
}

TEST(Simulator, CompletedTasksAreWithdrawnNextRound) {
  // Task 0 needs 2 measurements and has 3 users adjacent: it completes in
  // round 1 (possibly with overflow) and must receive nothing afterwards.
  Simulator s = make_sim(tiny_world());
  s.step();
  const int after_round1 = s.world().task(0).received();
  EXPECT_GE(after_round1, 2);
  for (int k = 0; k < 4; ++k) s.step();
  EXPECT_EQ(s.world().task(0).received(), after_round1);
}

TEST(Simulator, NoMeasurementsAfterDeadline) {
  SimulatorParams sp;
  sp.max_rounds = 8;
  Simulator sim = make_sim(tiny_world(), sp);
  for (int k = 0; k < 8; ++k) sim.step();
  for (const model::Task& t : sim.world().tasks()) {
    for (const auto& m : t.measurements()) {
      EXPECT_LE(m.round, t.deadline());
    }
  }
}

TEST(Simulator, PaymentsMatchTaskLedgers) {
  Simulator s = make_sim(tiny_world());
  for (int k = 0; k < 5 && !s.all_tasks_closed(); ++k) s.step();
  EXPECT_NEAR(s.budget().spent(), s.world().total_paid(), 1e-9);
}

TEST(Simulator, UserProfitsConsistentWithLedger) {
  Simulator s = make_sim(tiny_world());
  s.step();
  const auto& rm = s.history().back();
  for (std::size_t u = 0; u < 3; ++u) {
    const model::User& user = s.world().users()[u];
    EXPECT_NEAR(rm.user_profit[u], user.total_profit(), 1e-9);
  }
}

TEST(Simulator, RunStopsWhenAllTasksClosed) {
  SimulatorParams sp;
  sp.max_rounds = 15;
  Simulator s = make_sim(tiny_world(), sp);
  const CampaignMetrics m = s.run();
  EXPECT_TRUE(s.all_tasks_closed() || s.current_round() == 15);
  EXPECT_GT(m.total_measurements, 0);
  // Both tasks are trivially reachable for 3 users at budget 600 s; the
  // near one completes, the far one at (900,900) is within 1273 m one-way,
  // too far for the 1200 m budget -> expired uncovered.
  EXPECT_TRUE(s.world().task(0).completed());
}

TEST(Simulator, StepPastEndThrows) {
  SimulatorParams sp;
  sp.max_rounds = 1;
  Simulator s = make_sim(tiny_world(), sp);
  s.step();
  EXPECT_THROW(s.step(), Error);
}

TEST(Simulator, EventTraceMatchesMeasurements) {
  SimulatorParams sp;
  sp.record_events = true;
  Simulator s = make_sim(tiny_world(), sp);
  for (int k = 0; k < 3; ++k) s.step();
  EXPECT_EQ(static_cast<long long>(s.events().size()),
            s.world().total_received());
  for (const SensingEvent& e : s.events().events()) {
    EXPECT_TRUE(s.world().task(e.task).has_contributed(e.user));
    EXPECT_GT(e.reward, 0.0);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  SimulatorParams sp;
  sp.max_rounds = 5;
  Simulator a = make_sim(tiny_world(), sp);
  Simulator b = make_sim(tiny_world(), sp);
  const CampaignMetrics ma = a.run();
  const CampaignMetrics mb = b.run();
  EXPECT_EQ(ma.total_measurements, mb.total_measurements);
  EXPECT_DOUBLE_EQ(ma.total_paid, mb.total_paid);
  EXPECT_EQ(ma.per_task_received, mb.per_task_received);
}

TEST(Simulator, PeekInstancesDoesNotMutateState) {
  Simulator s = make_sim(tiny_world());
  const auto insts = s.peek_instances();
  ASSERT_EQ(insts.size(), 3u);
  EXPECT_EQ(s.world().total_received(), 0);
  EXPECT_EQ(s.current_round(), 0);
  // An instance lists the reachable open tasks: users near (0,0) see the
  // near task; the far corner task (1273 m away) exceeds every budget and
  // is not listed. Checked against a brute-force filter over every task.
  for (std::size_t pos = 0; pos < insts.size(); ++pos) {
    const auto& inst = insts[pos];
    const model::User& u = s.world().users()[pos];
    EXPECT_EQ(inst.start, u.home());
    EXPECT_DOUBLE_EQ(inst.time_budget, 600.0);
    std::vector<TaskId> reachable;
    for (const model::Task& t : s.world().tasks()) {
      if (geo::euclidean(u.home(), t.location()) <= inst.distance_budget() &&
          !u.has_contributed(t.id())) {
        reachable.push_back(t.id());
      }
    }
    std::vector<TaskId> listed;
    for (const auto& c : inst.candidates) listed.push_back(c.task);
    EXPECT_EQ(listed, reachable);
    EXPECT_EQ(inst.candidates.size(), 1u);
  }
  // Stepping afterwards behaves exactly like a fresh simulator.
  Simulator fresh = make_sim(tiny_world());
  EXPECT_EQ(s.step().new_measurements, fresh.step().new_measurements);
}

TEST(Simulator, PeekInstancesListTheReachableOpenTasks) {
  // Mid-campaign, every peeked instance equals a brute-force filter over
  // all tasks, in task order: open at the next round, priced, not yet
  // contributed by the user, and within the user's travel-distance budget.
  ScenarioParams p;
  p.num_users = 60;
  p.num_tasks = 40;
  Rng rng(11);
  Simulator s = make_sim(generate_world(p, rng));
  for (int k = 0; k < 3; ++k) s.step();
  const auto insts = s.peek_instances();
  const Round next = s.current_round() + 1;
  ASSERT_EQ(insts.size(), s.world().num_users());
  std::size_t listed = 0;
  std::size_t open_pairs = 0;
  for (std::size_t pos = 0; pos < insts.size(); ++pos) {
    const auto& inst = insts[pos];
    const model::User& u = s.world().users()[pos];
    EXPECT_EQ(inst.start, u.home());
    std::vector<select::Candidate> want;
    for (const model::Task& t : s.world().tasks()) {
      const Money price = s.mechanism().reward(t.id());
      if (t.completed() || t.expired_at(next) || price <= 0.0) continue;
      ++open_pairs;
      if (u.has_contributed(t.id())) continue;
      if (geo::euclidean(u.home(), t.location()) > inst.distance_budget()) {
        continue;
      }
      want.push_back({t.id(), t.location(), price});
    }
    ASSERT_EQ(inst.candidates.size(), want.size()) << "user " << pos;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(inst.candidates[i].task, want[i].task);
      EXPECT_EQ(inst.candidates[i].location, want[i].location);
      EXPECT_EQ(inst.candidates[i].reward, want[i].reward);
    }
    listed += want.size();
  }
  // The filter bites: some open tasks are listed, and some are out of reach.
  EXPECT_GT(listed, 0u);
  EXPECT_LT(listed, open_pairs);
}

TEST(Simulator, FixedMechanismCountsArePaidAtFixedRate) {
  model::World w = tiny_world();
  auto mech = std::make_unique<FixedMechanism>(RewardRule(0.5, 0.5, 5),
                                               std::vector<int>{3, 3});
  auto sel = select::make_selector(select::SelectorKind::kGreedy);
  Simulator s(std::move(w), std::move(mech), std::move(sel), {});
  s.step();
  for (const model::Task& t : s.world().tasks()) {
    for (const auto& m : t.measurements()) {
      EXPECT_DOUBLE_EQ(m.reward_paid, 1.5);  // level 3
    }
  }
}

TEST(Simulator, MeanOpenRewardTracksPublishedPrices) {
  Simulator s = make_sim(tiny_world());
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.open_tasks, 2);
  // Both tasks open at round 1; the snapshot mean is within the rule range.
  EXPECT_GE(rm.mean_open_reward, 0.5);
  EXPECT_LE(rm.mean_open_reward, 2.5);
  // After the near task completes, only the far one stays open.
  const RoundMetrics& rm2 = s.step();
  EXPECT_EQ(rm2.open_tasks, 1);
}

// Prices ramp 1, 2, 3, ... on every update_rewards() call and the mechanism
// reprices before each user session — a minimal intra-round mechanism with
// exactly predictable published prices.
class RampMechanism final : public incentive::IncentiveMechanism {
 public:
  const char* name() const override { return "ramp"; }
  bool updates_within_round() const override { return true; }
  void update_rewards(const model::World& world, Round) override {
    rewards_.assign(world.num_tasks(), next_price_);
    next_price_ += 1.0;
  }

 private:
  Money next_price_ = 1.0;
};

TEST(Simulator, IntraRoundMeanRewardAveragesSessionPrices) {
  // Round 1 publishes $1 at round start, then reprices to $2/$3/$4 before
  // the three user sessions. The recorded mean must be what users were
  // actually offered — the session average $3 — not the $1 start snapshot.
  auto sel = select::make_selector(select::SelectorKind::kGreedy);
  Simulator s(tiny_world(), std::make_unique<RampMechanism>(), std::move(sel),
              {});
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.open_tasks, 2);  // the round-start snapshot is unchanged
  EXPECT_DOUBLE_EQ(rm.mean_open_reward, 3.0);
}

TEST(Simulator, ConstructionValidation) {
  auto sel = select::make_selector(select::SelectorKind::kGreedy);
  EXPECT_THROW(Simulator(tiny_world(), nullptr, std::move(sel), {}), Error);
  auto mech = std::make_unique<FixedMechanism>(RewardRule(0.5, 0.5, 5),
                                               std::vector<int>{1, 1});
  EXPECT_THROW(Simulator(tiny_world(), std::move(mech), nullptr, {}), Error);
}

// Pays 1 + id/10 dollars for every open task, keyed strictly by task id —
// valid for worlds whose ids are not dense vector positions.
class IdKeyedMechanism final : public incentive::IncentiveMechanism {
 public:
  explicit IdKeyedMechanism(TaskId max_id) {
    rewards_.assign(static_cast<std::size_t>(max_id) + 1, 0.0);
  }
  const char* name() const override { return "id-keyed"; }
  void update_rewards(const model::World& world, Round k) override {
    for (const model::Task& t : world.tasks()) {
      rewards_[static_cast<std::size_t>(t.id())] =
          (t.completed() || t.expired_at(k))
              ? 0.0
              : 1.0 + 0.1 * static_cast<double>(t.id());
    }
  }
};

TEST(Simulator, RoundMetricsIndexRewardsByTaskIdNotPosition) {
  // Regression: the mean_open_reward snapshot used to query
  // mechanism->reward(position). With ids {10, 20, 31} that read rewards
  // the mechanism never published (same bug class as the DemandIndicator
  // position/id mixup fixed in PR 1).
  model::World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 200.0);
  w.tasks().emplace_back(TaskId{10}, geo::Point{100, 0}, Round{5}, 1);
  w.tasks().emplace_back(TaskId{20}, geo::Point{200, 0}, Round{5}, 1);
  w.tasks().emplace_back(TaskId{31}, geo::Point{900, 900}, Round{5}, 1);
  w.add_user({0, 0}, 600.0);

  auto sel = select::make_selector(select::SelectorKind::kDp);
  Simulator s(std::move(w), std::make_unique<IdKeyedMechanism>(31),
              std::move(sel), {});
  const RoundMetrics& rm = s.step();
  EXPECT_EQ(rm.open_tasks, 3);
  EXPECT_DOUBLE_EQ(rm.mean_open_reward, (2.0 + 3.0 + 4.1) / 3.0);
  // The campaign itself runs on id-keyed lookups too: the user reached the
  // two nearby tasks and was paid their published (id-keyed) rewards.
  EXPECT_EQ(s.world().task(10).received(), 1);
  EXPECT_EQ(s.world().task(20).received(), 1);
  EXPECT_DOUBLE_EQ(s.world().task(10).measurements()[0].reward_paid, 2.0);
  EXPECT_DOUBLE_EQ(s.world().task(20).measurements()[0].reward_paid, 3.0);
}

}  // namespace
}  // namespace mcs::sim
