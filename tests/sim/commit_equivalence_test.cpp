// The buffered commit pipeline's contract (sim/commit.h): round-granularity
// campaigns committed in batches — contiguous visit-order segments walked
// concurrently, merged and applied once per round — are bit-identical to
// committing the same users serially, one user at a time in visit order —
// spend down to the budget tracker's compensation word, deliveries,
// per-task measurement order, the event trace and every round metric — at
// any shard or plan-thread count. Runs under TSan in tier-1: phase A walks
// and the phase C row apply are concurrent regions over the world's stores.
//
// The serial reference is the test-held oracle of serial_reference.h: it
// pays, records and delivers every leg the moment it is walked.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "incentive/mechanism.h"
#include "model/world.h"
#include "select/selector.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "serial_reference.h"

namespace mcs::sim {
namespace {

using serial_reference::CampaignRun;
using serial_reference::expect_bit_identical;

FaultPlan stress_faults() {
  FaultPlan f;
  f.dropout_prob = 0.15;
  f.abandon_prob = 0.2;
  f.upload_loss_prob = 0.1;
  f.corruption_prob = 0.1;
  f.seed = 7;
  return f;
}

struct RunKnobs {
  incentive::MechanismKind kind = incentive::MechanismKind::kOnDemand;
  select::SelectorKind selector = select::SelectorKind::kDp;
  bool faults = false;
  bool serial_reference = false;  // run serial_reference::run_reference
  int shards = 0;
  int plan_threads = 1;
};

ScenarioParams scenario() {
  ScenarioParams p;
  p.num_users = 30;
  p.num_tasks = 12;
  p.required_measurements = 6;
  return p;
}

SimulatorParams make_params(const RunKnobs& k, Round max_rounds) {
  SimulatorParams sp;
  sp.max_rounds = max_rounds;
  sp.shards = k.shards;
  sp.plan_threads = k.plan_threads;
  sp.record_events = true;  // pins the event-trace order, not just totals
  if (k.faults) sp.faults = stress_faults();
  return sp;
}

CampaignRun run_world(model::World world,
                      std::unique_ptr<incentive::IncentiveMechanism> mechanism,
                      const RunKnobs& k, Round max_rounds) {
  auto selector = select::make_selector(k.selector, 14);
  const SimulatorParams sp = make_params(k, max_rounds);
  return serial_reference::run(k.serial_reference, std::move(world),
                               std::move(mechanism), std::move(selector), sp);
}

CampaignRun run_campaign(const RunKnobs& k) {
  Rng rng(4242);
  model::World world = generate_world(scenario(), rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism = incentive::make_mechanism(k.kind, world, {}, mech_rng);
  return run_world(std::move(world), std::move(mechanism), k, 8);
}

CampaignRun serial_run(RunKnobs k) {
  k.serial_reference = true;
  return run_campaign(k);
}

// {fixed, on-demand} x {clean, faulted} x shards {0, 1, 2, 8, auto}: the
// batch commit against the serial one-user-at-a-time reference.
TEST(CommitEquivalence, BufferedCommitMatchesLegacySerialBitIdentical) {
  for (const auto kind :
       {incentive::MechanismKind::kFixed, incentive::MechanismKind::kOnDemand}) {
    for (const bool faults : {false, true}) {
      RunKnobs k;
      k.kind = kind;
      k.faults = faults;
      const CampaignRun reference = serial_run(k);
      EXPECT_GT(reference.spent, 0.0);
      for (const int shards : {0, 1, 2, 8, SimulatorParams::kAutoShards}) {
        SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                     (faults ? "/faults" : "/clean") + "/shards=" +
                     std::to_string(shards));
        k.shards = shards;
        expect_bit_identical(reference, run_campaign(k));
      }
    }
  }
}

// shards = 0 takes the round loop's worker count from plan_threads: phase
// A fans the walk over the plan pool, so the batch commit must stay
// bit-identical to the serial reference at any plan-thread count.
TEST(CommitEquivalence, PlannedPathParallelWalkMatchesLegacy) {
  for (const auto kind :
       {incentive::MechanismKind::kFixed, incentive::MechanismKind::kOnDemand}) {
    for (const bool faults : {false, true}) {
      RunKnobs k;
      k.kind = kind;
      k.faults = faults;
      const CampaignRun reference = serial_run(k);
      for (const int plan_threads : {1, 4}) {
        SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                     (faults ? "/faults" : "/clean") + "/plan_threads=" +
                     std::to_string(plan_threads));
        k.plan_threads = plan_threads;
        expect_bit_identical(reference, run_campaign(k));
      }
    }
  }
}

// Greedy selector coverage: a different plan shape (and thus a different
// leg stream) through the same pipeline, with workers from plan_threads
// and from shards.
TEST(CommitEquivalence, GreedySelectorBufferedMatchesLegacy) {
  for (const bool faults : {false, true}) {
    RunKnobs k;
    k.selector = select::SelectorKind::kGreedy;
    k.faults = faults;
    const CampaignRun reference = serial_run(k);
    for (const auto& [shards, plan_threads] :
         {std::pair{0, 4}, std::pair{2, 1}, std::pair{8, 1}}) {
      SCOPED_TRACE(std::string(faults ? "faults" : "clean") + "/shards=" +
                   std::to_string(shards) + "/plan_threads=" +
                   std::to_string(plan_threads));
      k.shards = shards;
      k.plan_threads = plan_threads;
      expect_bit_identical(reference, run_campaign(k));
    }
  }
}

// Sparse user ids: the walk reads ids and state through store columns by
// *position*; ids {70, 10, 55} catch any id-as-index slip.
TEST(CommitEquivalence, SparseUserIdsBufferedMatchesLegacy) {
  const auto run = [](const RunKnobs& k) {
    geo::BoundingBox area{{0.0, 0.0}, {1000.0, 1000.0}};
    model::World world(area, geo::TravelModel{2.0, 0.002}, 500.0);
    world.add_task({100.0, 100.0}, /*deadline=*/5, /*required=*/2);
    world.add_task({900.0, 900.0}, 5, 2);
    world.add_task({500.0, 480.0}, 5, 2);
    world.users().emplace_back(UserId{70}, geo::Point{120.0, 120.0}, 900.0);
    world.users().emplace_back(UserId{10}, geo::Point{880.0, 880.0}, 900.0);
    world.users().emplace_back(UserId{55}, geo::Point{500.0, 500.0}, 900.0);
    for (model::User& u : world.users()) u.return_home();
    Rng mech_rng(1);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                          world, {}, mech_rng);
    return run_world(std::move(world), std::move(mech), k, 4);
  };
  for (const bool faults : {false, true}) {
    RunKnobs k;
    k.faults = faults;
    k.serial_reference = true;
    const CampaignRun reference = run(k);
    EXPECT_GT(reference.spent, 0.0);
    k.serial_reference = false;
    for (const auto& [shards, plan_threads] :
         {std::pair{0, 1}, std::pair{0, 4}, std::pair{2, 1}}) {
      SCOPED_TRACE(std::string(faults ? "faults" : "clean") + "/shards=" +
                   std::to_string(shards) + "/plan_threads=" +
                   std::to_string(plan_threads));
      k.shards = shards;
      k.plan_threads = plan_threads;
      expect_bit_identical(reference, run(k));
    }
  }
}

// Steered reprices between sessions and pays each session the price it was
// just offered, read by task row — so the layout of task ids must not move
// a single payment. Dense {0,1,2}, permuted {2,0,1} and sparse {40,17,93}
// ids over one geometry. Faults are user-keyed only (dropout,
// abandonment): upload-loss and glitch draws hash the task id and would
// legitimately differ between layouts.
TEST(CommitEquivalence, SteeredPaysRowPricesUnderAnyTaskIdLayout) {
  struct Outcome {
    Money spent_raw = 0.0;
    Money spent_comp = 0.0;
    std::vector<int> received;     // per task position
    std::vector<Money> total_paid;  // per task position
  };
  const auto run = [](const std::vector<TaskId>& ids, bool faults) {
    model::World world(geo::BoundingBox::square(1000.0),
                       geo::TravelModel{2.0, 0.002}, 400.0);
    // Uneven crowds (4 / 2 / 1 users in reach) drive the three tasks'
    // received counts — and with them their steered prices — apart.
    const geo::Point sites[] = {{150.0, 150.0}, {500.0, 500.0}, {850.0, 850.0}};
    for (std::size_t i = 0; i < ids.size(); ++i) {
      world.tasks().emplace_back(ids[i], sites[i], Round{6}, /*required=*/6);
    }
    const geo::Point homes[] = {{100.0, 120.0}, {180.0, 200.0}, {130.0, 90.0},
                                {210.0, 140.0}, {470.0, 530.0}, {540.0, 480.0},
                                {880.0, 820.0}};
    for (const geo::Point& h : homes) world.add_user(h, 300.0);
    Rng mech_rng(3);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kSteered,
                                          world, {}, mech_rng);
    SimulatorParams sp;
    sp.max_rounds = 5;
    if (faults) {
      sp.faults.dropout_prob = 0.2;
      sp.faults.abandon_prob = 0.3;
      sp.faults.seed = 11;
    }
    Simulator s(std::move(world), std::move(mech),
                select::make_selector(select::SelectorKind::kDp, 14), sp);
    s.run();
    Outcome out;
    out.spent_raw = s.budget().spent_raw();
    out.spent_comp = s.budget().compensation();
    for (const model::Task& t : s.world().tasks()) {
      out.received.push_back(t.received());
      out.total_paid.push_back(t.total_paid());
    }
    return out;
  };
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults" : "clean");
    const Outcome dense = run({0, 1, 2}, faults);
    EXPECT_GT(dense.spent_raw, 0.0);
    for (const std::vector<TaskId>& ids :
         {std::vector<TaskId>{2, 0, 1}, std::vector<TaskId>{40, 17, 93}}) {
      SCOPED_TRACE("ids=" + std::to_string(ids[0]) + "," +
                   std::to_string(ids[1]) + "," + std::to_string(ids[2]));
      const Outcome other = run(ids, faults);
      EXPECT_EQ(dense.spent_raw, other.spent_raw);
      EXPECT_EQ(dense.spent_comp, other.spent_comp);
      EXPECT_EQ(dense.received, other.received);
      EXPECT_EQ(dense.total_paid, other.total_paid);
    }
  }
}

}  // namespace
}  // namespace mcs::sim
