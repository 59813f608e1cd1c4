// The session engine's worker-count contract (SimulatorParams::shards): a
// round-granularity campaign is bit-identical at any shard count and to the
// serial one-user-at-a-time oracle (serial_reference.h) — under every
// mobility model, with the shipped DP/greedy selectors — and intra-round
// campaigns equal the oracle too. Runs under TSan in tier-1: the pre-pass
// and plan phase are concurrent regions over the world's stores.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "incentive/mechanism.h"
#include "model/world.h"
#include "select/plan_memo.h"
#include "select/selector.h"
#include "sim/checkpoint.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "sim/serialize.h"
#include "sim/simulator.h"
#include "serial_reference.h"

namespace mcs::sim {
namespace {

FaultPlan stress_faults() {
  FaultPlan f;
  f.dropout_prob = 0.15;
  f.abandon_prob = 0.2;
  f.upload_loss_prob = 0.1;
  f.seed = 7;
  return f;
}

struct RunKnobs {
  incentive::MechanismKind kind = incentive::MechanismKind::kOnDemand;
  select::SelectorKind selector = select::SelectorKind::kDp;
  bool faults = false;
  bool memo = false;
  int shards = 0;
  MobilityKind mobility = MobilityKind::kStaticHome;
  // Dense home sites + budget quantum give the memo real equivalence
  // classes when enabled.
  int home_sites = 0;
  Seconds budget_quantum = 0.0;
};

ScenarioParams scenario(const RunKnobs& k) {
  ScenarioParams p;
  p.num_users = 30;
  p.num_tasks = 12;
  p.required_measurements = 6;
  p.home_sites = k.home_sites;
  p.user_budget_quantum_s = k.budget_quantum;
  return p;
}

using serial_reference::CampaignRun;
using serial_reference::expect_bit_identical;
using serial_reference::finish;

// Everything a campaign is built from.
struct Inputs {
  model::World world;
  std::unique_ptr<incentive::IncentiveMechanism> mechanism;
  std::unique_ptr<select::TaskSelector> selector;
  SimulatorParams sp;
  std::unique_ptr<MobilityModel> mobility;
};

Inputs make_inputs(const RunKnobs& k) {
  Rng rng(4242);
  model::World world = generate_world(scenario(k), rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism = incentive::make_mechanism(k.kind, world, {}, mech_rng);
  SimulatorParams sp;
  sp.max_rounds = 8;
  sp.shards = k.shards;
  sp.memo.enabled = k.memo;
  if (k.faults) sp.faults = stress_faults();
  return {std::move(world), std::move(mechanism),
          select::make_selector(k.selector, 14), sp,
          make_mobility(k.mobility, /*drift_sigma=*/150.0)};
}

Simulator make_simulator(const RunKnobs& k) {
  Inputs in = make_inputs(k);
  return Simulator(std::move(in.world), std::move(in.mechanism),
                   std::move(in.selector), in.sp, std::move(in.mobility));
}

CampaignRun run_campaign(const RunKnobs& k) {
  Simulator s = make_simulator(k);
  s.run();
  return finish(s);
}

CampaignRun serial_run(const RunKnobs& k) {
  Inputs in = make_inputs(k);
  return serial_reference::run_reference(
      std::move(in.world), std::move(in.mechanism), std::move(in.selector),
      in.sp, std::move(in.mobility));
}

// The memo counters a campaign must report: `{exact_hits, fixup_hits,
// misses, fallbacks, rounds}`.
void expect_memo_stats(const CampaignRun& r, const select::PlanMemoStats& s) {
  EXPECT_EQ(r.memo_stats.exact_hits, s.exact_hits);
  EXPECT_EQ(r.memo_stats.fixup_hits, s.fixup_hits);
  EXPECT_EQ(r.memo_stats.misses, s.misses);
  EXPECT_EQ(r.memo_stats.fallbacks, s.fallbacks);
  EXPECT_EQ(r.memo_stats.rounds, s.rounds);
}

void expect_same_memo_stats(const CampaignRun& a, const CampaignRun& b) {
  EXPECT_EQ(a.memo_stats.exact_hits, b.memo_stats.exact_hits);
  EXPECT_EQ(a.memo_stats.fixup_hits, b.memo_stats.fixup_hits);
  EXPECT_EQ(a.memo_stats.misses, b.memo_stats.misses);
  EXPECT_EQ(a.memo_stats.fallbacks, b.memo_stats.fallbacks);
  EXPECT_EQ(a.memo_stats.rounds, b.memo_stats.rounds);
}

// {fixed, on-demand, steered} x {clean, faulted} x shards {0, 1, 2, 8,
// auto} against the serial oracle, DP selector, static-home mobility.
// Steered is intra-round (the knob is a documented no-op there) and pins
// exactly that.
TEST(ShardEquivalence, ShardCountsMatchLegacyLoopBitIdentical) {
  for (const auto kind :
       {incentive::MechanismKind::kFixed, incentive::MechanismKind::kOnDemand,
        incentive::MechanismKind::kSteered}) {
    for (const bool faults : {false, true}) {
      RunKnobs base;
      base.kind = kind;
      base.faults = faults;
      const CampaignRun reference = serial_run(base);
      for (const int shards : {0, 1, 2, 8, SimulatorParams::kAutoShards}) {
        SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                     (faults ? "/faults" : "/clean") + "/shards=" +
                     std::to_string(shards));
        RunKnobs k = base;
        k.shards = shards;
        expect_bit_identical(reference, run_campaign(k));
      }
    }
  }
}

// The greedy selector never picks a candidate beyond the travel-distance
// budget (the first leg is checked directly, later legs by the triangle
// inequality), so the gather's reach filter is invisible to it too.
TEST(ShardEquivalence, GreedySelectorShardedMatchesLegacy) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults" : "clean");
    RunKnobs k;
    k.selector = select::SelectorKind::kGreedy;
    k.faults = faults;
    const CampaignRun reference = serial_run(k);
    for (const int shards : {0, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      k.shards = shards;
      expect_bit_identical(reference, run_campaign(k));
    }
  }
}

// Memo on: the per-cell tables depend only on the world geometry (cell
// partition) and per-cell position order, never on the worker count — so
// plans AND hit/miss accounting are shard-count-invariant. The trajectory
// also matches the memo-free serial oracle (the memo is proof-gated).
// A fine budget quantum over six shared home sites yields every outcome —
// exact hits, empty-tour fix-ups and fallbacks — so the pinned counters
// also pin the walk order within each cell (ascending position): walking a
// cell in any other order changes which user owns a class.
TEST(ShardEquivalence, MemoShardCountInvariantIncludingStats) {
  RunKnobs k;
  k.memo = true;
  k.home_sites = 6;
  k.budget_quantum = 20.0;
  k.shards = 1;
  const CampaignRun one = run_campaign(k);
  expect_memo_stats(one, {50, 20, 170, 8, 8});
  for (const int shards : {0, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    k.shards = shards;
    const CampaignRun many = run_campaign(k);
    expect_bit_identical(one, many);
    expect_same_memo_stats(one, many);
  }
  expect_bit_identical(serial_run(k), one);
}

// A memo-on world of a few thousand users over uneven cells — a dense
// downtown cell, a ring of sparse cells and users exactly on cell edges —
// so the worker partition's snap to cell-run boundaries is exercised at
// every worker count: plans and all five memo counters must not move. A
// cell split between two workers would open a second table for it and
// change `misses`. The counters are pinned like the test above; this world
// produces fix-up hits and fallbacks, so they also pin the position order
// within each cell.
TEST(ShardEquivalence, UnevenCellPartitionKeepsPlansAndMemoStats) {
  const auto run = [](int workers) {
    const double side = 6400.0;  // cell side = side / 64 = 100 m
    model::World world(geo::BoundingBox::square(side),
                       geo::TravelModel{2.0, 0.002}, 300.0);
    Rng rng(31);
    for (int i = 0; i < 60; ++i) {
      world.add_task({rng.uniform(2000.0, 4400.0), rng.uniform(2000.0, 4400.0)},
                     /*deadline=*/6, /*required=*/40);
    }
    // Downtown: 1500 users on 12 shared sites inside one cell.
    for (int i = 0; i < 1500; ++i) {
      const double site = static_cast<double>(i % 12);
      world.add_user({3210.0 + 5.0 * site, 3250.0}, 300.0 + 60.0 * (i % 3));
    }
    // Sparse ring: 1500 users scattered over the whole square.
    for (int i = 0; i < 1500; ++i) {
      world.add_user({rng.uniform(0.0, side), rng.uniform(0.0, side)},
                     rng.uniform(300.0, 600.0));
    }
    // Cell edges: 200 users exactly on multiples of the cell side.
    for (int i = 0; i < 200; ++i) {
      world.add_user({100.0 * (20 + i % 24), 100.0 * (20 + i / 24)}, 450.0);
    }
    incentive::MechanismParams mp;
    mp.platform_budget = 3.0 * 40.0 * 60.0;  // B = 3 phi T keeps r0 > 0
    Rng mech_rng(5);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                          world, mp, mech_rng);
    SimulatorParams sp;
    sp.max_rounds = 4;
    sp.platform_budget = mp.platform_budget;
    sp.shards = workers;
    sp.memo.enabled = true;
    sp.faults.dropout_prob = 0.1;
    sp.faults.seed = 3;
    Simulator s(std::move(world), std::move(mech),
                select::make_selector(select::SelectorKind::kDp, 14), sp);
    s.run();
    return finish(s);
  };
  const CampaignRun one = run(1);
  expect_memo_stats(one, {3374, 38, 5255, 686, 3});
  for (const int workers : {2, 3, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const CampaignRun many = run(workers);
    expect_bit_identical(one, many);
    expect_same_memo_stats(one, many);
  }
}

// Stochastic mobility draws per-user substreams, pure functions of (seed,
// round, position): at any worker count the round loop walks the exact
// campaign the serial oracle walks.
TEST(ShardEquivalence, StochasticMobilityShardCountInvariant) {
  for (const auto mobility :
       {MobilityKind::kGaussianDrift, MobilityKind::kRandomWaypoint}) {
    SCOPED_TRACE(mobility_name(mobility));
    RunKnobs k;
    k.mobility = mobility;
    k.faults = true;
    const CampaignRun reference = serial_run(k);
    for (const int shards : {1, 4, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      k.shards = shards;
      expect_bit_identical(reference, run_campaign(k));
    }
  }
}

// Intra-round campaigns run the same pre-pass: every user moves (from its
// own substream) and draws dropout before the first session, then each
// session is repriced, planned and committed in visit order. Steered with
// faults under every mobility model equals the serial oracle, whatever the
// (ignored) worker count.
TEST(ShardEquivalence, SteeredMatchesReferenceUnderEveryMobility) {
  for (const auto mobility :
       {MobilityKind::kStaticHome, MobilityKind::kRandomWaypoint,
        MobilityKind::kGaussianDrift, MobilityKind::kCommute}) {
    SCOPED_TRACE(mobility_name(mobility));
    RunKnobs k;
    k.kind = incentive::MechanismKind::kSteered;
    k.mobility = mobility;
    k.faults = true;
    const CampaignRun reference = serial_run(k);
    EXPECT_GT(reference.spent, 0.0);
    for (const int shards : {0, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      k.shards = shards;
      expect_bit_identical(reference, run_campaign(k));
    }
  }
}

// Commute mobility is deterministic (no draws) and must match the serial
// oracle exactly as well.
TEST(ShardEquivalence, CommuteMobilityShardedMatchesLegacy) {
  RunKnobs k;
  k.mobility = MobilityKind::kCommute;
  const CampaignRun reference = serial_run(k);
  for (const int shards : {0, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    k.shards = shards;
    expect_bit_identical(reference, run_campaign(k));
  }
}

// Sparse user ids through the round loop: ids {70, 10, 55} on a 3-user
// world force every piece of its bookkeeping (cell keys, substream
// seeding, profit rows, dropped flags) to index by *position*, never by id.
// Task ids stay dense here (sparse task ids are pinned in the storage
// round-trip below).
TEST(ShardEquivalence, SparseUserIdsShardedMatchesLegacy) {
  const auto run = [](int shards, bool reference) {
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
    auto selector = select::make_selector(select::SelectorKind::kDp, 14);
    SimulatorParams sp;
    sp.max_rounds = 4;
    sp.shards = shards;
    return serial_reference::run(reference, std::move(world), std::move(mech),
                                 std::move(selector), sp);
  };
  const CampaignRun reference = run(0, true);
  EXPECT_GT(reference.spent, 0.0);
  for (const int shards : {0, 1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_bit_identical(reference, run(shards, false));
  }
}

// A task exactly at the edge of a user's reach: 300^2 + 230^2 = 142900 is
// exact, the user's reach is r = fl(sqrt(142900)) and fl(r * r) < 142900,
// so a squared-distance grid query at radius r misses a task the exact
// reach predicate keeps. The gather's inflated query must collect it at
// every worker count, exactly as the oracle's brute-force scan does.
TEST(ShardEquivalence, ReachBoundaryTaskMatchesReference) {
  const double reach = std::sqrt(300.0 * 300.0 + 230.0 * 230.0);
  ASSERT_LT(reach * reach, 142900.0);
  const auto run = [reach](int shards, bool reference) {
    model::World world(geo::BoundingBox::square(3000.0),
                       geo::TravelModel{2.0, 0.002}, 500.0);
    world.add_task({1300.0, 1230.0}, /*deadline=*/5, /*required=*/2);
    world.add_task({2500.0, 2500.0}, 5, 2);
    world.add_user({1000.0, 1000.0}, /*time_budget=*/reach / 2.0);
    world.add_user({2400.0, 2400.0}, 300.0);
    world.add_user({1500.0, 1400.0}, 300.0);
    Rng mech_rng(1);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                          world, {}, mech_rng);
    SimulatorParams sp;
    sp.max_rounds = 3;
    sp.shards = shards;
    sp.record_events = true;
    auto selector = select::make_selector(select::SelectorKind::kDp, 14);
    return serial_reference::run(reference, std::move(world), std::move(mech),
                                 std::move(selector), sp);
  };
  const CampaignRun reference = run(0, true);
  // The boundary user delivers in round 1.
  EXPECT_NE(reference.events_json.find("\"round\":1,\"task\":0,\"user\":0"),
            std::string::npos);
  for (const int shards : {0, 1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_bit_identical(reference, run(shards, false));
  }
}

// A sparse world: four tasks on the paper's 3 km square. The round task
// index sizes its cells to about one open task each — 1.5 km here, 32x the
// area/64 user-bucket cell — and the cells grow as tasks complete and
// close. A gather's hits must not depend on the cell size: at every worker
// count the campaign equals the brute-force oracle.
TEST(ShardEquivalence, SparseTaskIndexMatchesReference) {
  const auto run = [](incentive::MechanismKind kind, int shards,
                      bool reference) {
    model::World world(geo::BoundingBox::square(3000.0),
                       geo::TravelModel{2.0, 0.002}, 500.0);
    Rng rng(17);
    for (int i = 0; i < 4; ++i) {
      world.add_task({rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)},
                     /*deadline=*/8, /*required=*/4 + 4 * i);
    }
    for (int i = 0; i < 40; ++i) {
      world.add_user({rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)},
                     rng.uniform(300.0, 900.0));
    }
    Rng mech_rng(3);
    auto mech = incentive::make_mechanism(kind, world, {}, mech_rng);
    SimulatorParams sp;
    sp.max_rounds = 8;
    sp.shards = shards;
    return serial_reference::run(
        reference, std::move(world), std::move(mech),
        select::make_selector(select::SelectorKind::kDp, 14), sp);
  };
  for (const auto kind : {incentive::MechanismKind::kOnDemand,
                          incentive::MechanismKind::kSteered}) {
    SCOPED_TRACE(incentive::mechanism_name(kind));
    const CampaignRun reference = run(kind, 0, true);
    // Tasks close during the campaign, so later rounds index fewer rows
    // on larger cells.
    ASSERT_FALSE(reference.rounds.empty());
    EXPECT_LT(reference.rounds.back().open_tasks,
              reference.rounds.front().open_tasks);
    for (const int shards : {0, 1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      expect_bit_identical(reference, run(kind, shards, false));
    }
  }
}

// The DP selector, checking every instance it is given against the gather
// contract: candidates in ascending task id (= row here), each offered at a
// positive price. No shipped selector ever picks a zero-price candidate, so
// an instance that offered one would still walk the oracle's campaign; this
// check sees it.
class GatherContractSelector final : public select::TaskSelector {
 public:
  GatherContractSelector()
      : inner_(select::make_selector(select::SelectorKind::kDp, 14)) {}
  const char* name() const override { return "gather-contract"; }
  select::Selection select(
      const select::SelectionInstance& instance) const override {
    for (std::size_t i = 0; i < instance.candidates.size(); ++i) {
      EXPECT_GT(instance.candidates[i].reward, 0.0);
      if (i > 0) {
        EXPECT_LT(instance.candidates[i - 1].task, instance.candidates[i].task);
      }
    }
    return inner_->select(instance);
  }
  int exact_candidate_limit() const override {
    return inner_->exact_candidate_limit();
  }
  std::unique_ptr<select::TaskSelector> clone() const override {
    return std::make_unique<GatherContractSelector>();
  }

 private:
  std::unique_ptr<select::TaskSelector> inner_;
};

// Users homed at shared sites with bucketed budgets start a round at
// bit-equal points with a few distinct reaches, so most gathers repeat a
// (start, reach) query that an earlier user of the round already ran. A
// repeat reuses that query's rows and reapplies only its own contributed
// and price filters: two users at one site with different budgets must
// not share rows, and steered reprices between sessions — a task that
// completes mid-round drops to price 0 — so the price filter must read
// each session's prices. At 1 and 4 workers, with the memo on and off,
// every campaign equals the brute-force oracle.
TEST(ShardEquivalence, SharedStartsMatchReference) {
  const auto run = [](const RunKnobs& k, bool reference) {
    Inputs in = make_inputs(k);
    return serial_reference::run(
        reference, std::move(in.world), std::move(in.mechanism),
        std::make_unique<GatherContractSelector>(), in.sp,
        std::move(in.mobility));
  };
  for (const auto kind : {incentive::MechanismKind::kOnDemand,
                          incentive::MechanismKind::kSteered}) {
    RunKnobs base;
    base.kind = kind;
    base.home_sites = 4;
    base.budget_quantum = 150.0;
    const CampaignRun reference = run(base, true);
    EXPECT_GT(reference.spent, 0.0);
    for (const bool memo : {false, true}) {
      for (const int shards : {1, 4}) {
        SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                     (memo ? "/memo" : "/no-memo") + "/shards=" +
                     std::to_string(shards));
        RunKnobs k = base;
        k.memo = memo;
        k.shards = shards;
        expect_bit_identical(reference, run(k, false));
      }
    }
  }
}

// Sparse task AND user ids through the SoA stores and the checkpoint's
// world payload: task ids {10, 20, 31} / user ids {70, 10, 55} with
// contributions recorded into the chunked bitsets must survive
// world_to_json -> world_from_json byte for byte, with membership intact.
TEST(ShardEquivalence, SparseIdsSoAStorageSerializationRoundTrip) {
  geo::BoundingBox area{{0.0, 0.0}, {1000.0, 1000.0}};
  model::World world(area, geo::TravelModel{2.0, 0.002}, 500.0);
  world.tasks().emplace_back(TaskId{10}, geo::Point{100.0, 100.0},
                             /*deadline=*/5, /*required=*/2);
  world.tasks().emplace_back(TaskId{20}, geo::Point{900.0, 900.0}, 5, 2);
  world.tasks().emplace_back(TaskId{31}, geo::Point{500.0, 480.0}, 5, 2);
  world.users().emplace_back(UserId{70}, geo::Point{120.0, 120.0}, 900.0);
  world.users().emplace_back(UserId{10}, geo::Point{880.0, 880.0}, 900.0);
  world.users().emplace_back(UserId{55}, geo::Point{500.0, 500.0}, 900.0);
  for (model::User& u : world.users()) u.return_home();
  // The snapshot format derives contributed sets from the task measurement
  // lists, so marks and measurements must agree.
  world.users()[0].mark_contributed(TaskId{31});
  world.tasks()[2].add_measurement(UserId{70}, /*round=*/1,
                                   /*reward_paid=*/3.0);
  world.users()[2].mark_contributed(TaskId{10});
  world.tasks()[0].add_measurement(UserId{55}, 1, 2.5);
  world.users()[2].mark_contributed(TaskId{20});
  world.tasks()[1].add_measurement(UserId{55}, 1, 2.0);

  const std::string before = world_to_json(world).dump(2);
  model::World back = world_from_json(world_to_json(world));
  EXPECT_EQ(world_to_json(back).dump(2), before);
  EXPECT_TRUE(back.users()[0].has_contributed(TaskId{31}));
  EXPECT_FALSE(back.users()[0].has_contributed(TaskId{10}));
  EXPECT_TRUE(back.users()[2].has_contributed(TaskId{10}));
  EXPECT_TRUE(back.users()[2].has_contributed(TaskId{20}));
  EXPECT_EQ(back.users()[2].tasks_contributed(), 2u);
}

// A selector without clone() cannot fan out: whatever shards asks for, the
// round loop runs at one worker on the simulator's own solver and stays
// bit-identical to the serial reference.
class UncloneableSelector final : public select::TaskSelector {
 public:
  UncloneableSelector()
      : inner_(select::make_selector(select::SelectorKind::kGreedy, 14)) {}
  const char* name() const override { return "uncloneable"; }
  select::Selection select(
      const select::SelectionInstance& instance) const override {
    return inner_->select(instance);
  }
  // clone() intentionally not overridden: the base returns nullptr.

 private:
  std::unique_ptr<select::TaskSelector> inner_;
};

TEST(ShardEquivalence, SelectorWithoutCloneFallsBackToLegacyLoop) {
  const auto run = [](int shards, bool reference) {
    RunKnobs k;
    Rng rng(4242);
    model::World world = generate_world(scenario(k), rng);
    Rng mech_rng = rng.split(0xfeed);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                          world, {}, mech_rng);
    auto selector = std::make_unique<UncloneableSelector>();
    SimulatorParams sp;
    sp.max_rounds = 5;
    sp.shards = shards;
    return serial_reference::run(reference, std::move(world), std::move(mech),
                                 std::move(selector), sp);
  };
  const CampaignRun reference = run(0, true);
  EXPECT_GT(reference.spent, 0.0);
  for (const int shards : {0, 4, SimulatorParams::kAutoShards}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_bit_identical(reference, run(shards, false));
  }
}

// Checkpoint/resume round-trips the SoA world and the shards knob: a
// campaign at 2 workers torn down mid-flight through the envelope bytes
// resumes bit-identically, and the decoded params still say 2.
TEST(ShardEquivalence, CheckpointResumeMidCampaignSharded) {
  RunKnobs k;
  k.faults = true;
  k.memo = true;
  k.home_sites = 6;
  k.budget_quantum = 300.0;
  k.shards = 2;
  const CampaignRun straight = run_campaign(k);

  std::optional<Simulator> s(make_simulator(k));
  const Round max_rounds = 8;
  while (s->current_round() < max_rounds && !s->all_tasks_closed()) {
    s->step();
    const Round done = s->current_round();
    if (done % 2 == 0 && done < max_rounds) {
      const std::string bytes = encode_checkpoint(s->checkpoint());
      s.reset();  // the original campaign is gone, bytes are all that's left
      const CampaignCheckpoint back = decode_checkpoint(bytes);
      EXPECT_EQ(back.params.shards, 2);
      // Replay the construction-time draws exactly as the runner does.
      Rng rng(4242);
      model::World fresh = generate_world(scenario(k), rng);
      Rng mech_rng = rng.split(0xfeed);
      s.emplace(Simulator::resume(
          back,
          incentive::make_mechanism(k.kind, fresh, {}, mech_rng),
          select::make_selector(k.selector, 14),
          make_mobility(k.mobility, 150.0)));
    }
  }
  const CampaignRun resumed = finish(*s);
  expect_bit_identical(straight, resumed);
  expect_same_memo_stats(straight, resumed);
}

}  // namespace
}  // namespace mcs::sim
