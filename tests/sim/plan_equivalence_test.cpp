// The session engine's plan-thread contract: a campaign is bit-identical
// to the serial one-user-at-a-time oracle (serial_reference.h) at any
// plan-thread count, including for selectors
// without clone(), and steered's incremental intra-round repricing matches
// a full per-session recompute. These suites run under TSan in tier-1 (the
// pre-pass, plan and commit walk are the concurrent regions touching the
// world).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "incentive/adaptive_budget_mechanism.h"
#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/mechanism.h"
#include "incentive/steered_mechanism.h"
#include "model/world.h"
#include "select/selector.h"
#include "sim/scenario.h"
#include "sim/serialize.h"
#include "sim/simulator.h"
#include "serial_reference.h"

namespace mcs {
namespace {

sim::FaultPlan stress_faults() {
  sim::FaultPlan f;
  f.dropout_prob = 0.15;
  f.abandon_prob = 0.2;
  f.upload_loss_prob = 0.1;
  f.seed = 7;
  return f;
}

using sim::serial_reference::CampaignRun;
using sim::serial_reference::expect_bit_identical;

// plan_threads = kSerialReference runs the campaign through the serial
// oracle instead.
constexpr int kSerialReference = -1;

CampaignRun run_campaign(incentive::MechanismKind kind, bool faults,
                         int plan_threads,
                         std::unique_ptr<incentive::IncentiveMechanism>
                             mechanism_override = nullptr,
                         int reprice_threads = 1) {
  sim::ScenarioParams p;
  p.num_users = 30;
  p.num_tasks = 12;
  p.required_measurements = 6;
  Rng rng(4242);
  model::World world = sim::generate_world(p, rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism = mechanism_override
                       ? std::move(mechanism_override)
                       : incentive::make_mechanism(kind, world, {}, mech_rng);
  auto selector = select::make_selector(select::SelectorKind::kDp, 14);
  sim::SimulatorParams sp;
  sp.max_rounds = 8;
  sp.plan_threads = plan_threads;
  sp.reprice_threads = reprice_threads;
  sp.record_events = true;
  if (faults) sp.faults = stress_faults();
  return sim::serial_reference::run(plan_threads == kSerialReference,
                                    std::move(world), std::move(mechanism),
                                    std::move(selector), sp);
}

// The adaptive-budget mechanism is not a MechanismKind (it is our
// extension, built directly); the scenario's budget keeps its Eq. 9 base
// reward positive (1000 / (12*6) - 0.5*4 > 0).
std::unique_ptr<incentive::IncentiveMechanism> make_adaptive() {
  return std::make_unique<incentive::AdaptiveBudgetMechanism>(
      incentive::DemandIndicator::with_paper_defaults(),
      incentive::DemandLevelScale(5), /*budget=*/1000.0, /*lambda=*/0.5);
}

// {fixed, on-demand, steered} x {no faults, faulted} x plan threads {1, 2,
// 8} against the serial oracle. Steered is intra-round (the knob is a
// documented no-op there) and pins exactly that.
TEST(PlanEquivalence, SerialAndParallelCampaignsBitIdentical) {
  for (const auto kind :
       {incentive::MechanismKind::kFixed, incentive::MechanismKind::kOnDemand,
        incentive::MechanismKind::kSteered}) {
    for (const bool faults : {false, true}) {
      const CampaignRun reference =
          run_campaign(kind, faults, kSerialReference);
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                     (faults ? "/faults" : "/clean") + "/threads=" +
                     std::to_string(threads));
        expect_bit_identical(reference, run_campaign(kind, faults, threads));
      }
    }
  }
}

TEST(PlanEquivalence, AutoThreadCountBitIdentical) {
  const CampaignRun reference = run_campaign(
      incentive::MechanismKind::kOnDemand, true, kSerialReference);
  expect_bit_identical(
      reference, run_campaign(incentive::MechanismKind::kOnDemand, true, 0));
}

// Same plan-thread matrix for the adaptive-budget mechanism (it rides the
// round-granularity loop like on-demand does).
TEST(PlanEquivalence, AdaptiveBudgetCampaignsBitIdentical) {
  for (const bool faults : {false, true}) {
    const CampaignRun reference =
        run_campaign(incentive::MechanismKind::kOnDemand, faults,
                     kSerialReference, make_adaptive());
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(faults ? "faults" : "clean") +
                   "/threads=" + std::to_string(threads));
      expect_bit_identical(
          reference, run_campaign(incentive::MechanismKind::kOnDemand, faults,
                                  threads, make_adaptive()));
    }
  }
}

// A selector that predates the clone() hook cannot fan out: whatever
// plan_threads or shards ask for, the round loop runs at one worker on the
// simulator's own (non-reentrant) solver rather than sharing it across
// workers — and the campaign equals the serial reference.
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

TEST(PlanEquivalence, SelectorWithoutCloneFallsBackToSerial) {
  const auto run = [](int plan_threads, int shards) {
    sim::ScenarioParams p;
    p.num_users = 20;
    p.num_tasks = 8;
    p.required_measurements = 4;
    Rng rng(99);
    model::World world = sim::generate_world(p, rng);
    Rng mech_rng = rng.split(0xfeed);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                          world, {}, mech_rng);
    auto selector = std::make_unique<UncloneableSelector>();
    sim::SimulatorParams sp;
    sp.max_rounds = 5;
    sp.plan_threads = plan_threads;
    sp.shards = shards;
    return sim::serial_reference::run(plan_threads == kSerialReference,
                                      std::move(world), std::move(mech),
                                      std::move(selector), sp);
  };
  const CampaignRun reference = run(kSerialReference, 0);
  EXPECT_GT(reference.spent, 0.0);
  for (const auto& [plan_threads, shards] :
       {std::pair{1, 0}, std::pair{4, 0}, std::pair{1, 4},
        std::pair{1, sim::SimulatorParams::kAutoShards}}) {
    SCOPED_TRACE("plan_threads=" + std::to_string(plan_threads) +
                 "/shards=" + std::to_string(shards));
    expect_bit_identical(reference, run(plan_threads, shards));
  }
}

// Non-dense user ids: worlds assembled through the mutable users() accessor
// may carry arbitrary ids. step() must index profit rows (and everything
// else) by user *position* — the old id-indexed write ran off the end of
// rm.user_profit for ids >= num_users.
TEST(PlanEquivalence, NonDenseUserIdsProfitRowsByPosition) {
  geo::BoundingBox area{{0.0, 0.0}, {1000.0, 1000.0}};
  model::World world(area, geo::TravelModel{2.0, 0.002}, 500.0);
  world.add_task({100.0, 100.0}, /*deadline=*/5, /*required=*/3);
  world.add_task({900.0, 900.0}, 5, 3);
  world.users().emplace_back(UserId{70}, geo::Point{120.0, 120.0}, 600.0);
  world.users().emplace_back(UserId{10}, geo::Point{880.0, 880.0}, 600.0);
  world.users().emplace_back(UserId{55}, geo::Point{500.0, 500.0}, 600.0);
  for (model::User& u : world.users()) u.return_home();

  Rng mech_rng(1);
  auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                        world, {}, mech_rng);
  auto selector = select::make_selector(select::SelectorKind::kGreedy, 14);
  sim::SimulatorParams sp;
  sp.max_rounds = 3;
  sim::Simulator s(std::move(world), std::move(mech), std::move(selector),
                   sp);
  const sim::RoundMetrics& rm = s.step();
  ASSERT_EQ(rm.user_profit.size(), 3u);
  // Each profit row matches its position's user (round 1 profit == lifetime
  // profit after one round), not its id.
  for (std::size_t pos = 0; pos < 3; ++pos) {
    EXPECT_DOUBLE_EQ(rm.user_profit[pos],
                     s.world().users()[pos].total_profit())
        << "position " << pos;
  }
  EXPECT_GT(rm.active_users, 0);
}

// Reference oracle: steered with the incremental path disabled — reprice
// always recomputes in full, exactly what the pre-optimization simulator
// did before every session.
class FullRepriceSteered final : public incentive::SteeredMechanism {
 public:
  using incentive::SteeredMechanism::SteeredMechanism;
  void reprice(const model::World& world, Round k,
               const std::vector<std::size_t>& dirty_tasks) override {
    (void)dirty_tasks;
    update_rewards(world, k);
  }
};

// The reprice-sharding contract: {fixed, on-demand, steered, adaptive} x
// {clean, faulted} campaigns are bit-identical at reprice worker counts
// {2, 8, auto} against the serial run — end world JSON, full event trace,
// per-round metrics and the exact budget doubles. On-demand and adaptive
// exercise the fused sharded sweep (adaptive through the journal-consuming
// path); fixed ignores the workers; steered pins that intra-round
// mechanisms only see the pool at their round-start publish while the
// per-session reprices stay serial.
TEST(RepriceEquivalence, CampaignsBitIdenticalAtAnyWorkerCount) {
  for (const bool faults : {false, true}) {
    for (const auto kind :
         {incentive::MechanismKind::kFixed, incentive::MechanismKind::kOnDemand,
          incentive::MechanismKind::kSteered}) {
      const CampaignRun serial = run_campaign(kind, faults, 1, nullptr, 1);
      for (const int workers : {2, 8, 0}) {
        SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                     (faults ? "/faults" : "/clean") + "/reprice_threads=" +
                     std::to_string(workers));
        expect_bit_identical(serial,
                             run_campaign(kind, faults, 1, nullptr, workers));
      }
    }
    const CampaignRun serial = run_campaign(incentive::MechanismKind::kOnDemand,
                                            faults, 1, make_adaptive(), 1);
    for (const int workers : {2, 8, 0}) {
      SCOPED_TRACE(std::string("on-demand-adaptive") +
                   (faults ? "/faults" : "/clean") + "/reprice_threads=" +
                   std::to_string(workers));
      expect_bit_identical(serial,
                           run_campaign(incentive::MechanismKind::kOnDemand,
                                        faults, 1, make_adaptive(), workers));
    }
  }
}

TEST(RepriceEquivalence, SteeredIncrementalMatchesFullRecompute) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults" : "clean");
    const CampaignRun incremental = run_campaign(
        incentive::MechanismKind::kSteered, faults, 1,
        std::make_unique<incentive::SteeredMechanism>(0.5, 10.0, 0.2));
    const CampaignRun full = run_campaign(
        incentive::MechanismKind::kSteered, faults, 1,
        std::make_unique<FullRepriceSteered>(0.5, 10.0, 0.2));
    expect_bit_identical(incremental, full);
  }
}

}  // namespace
}  // namespace mcs
