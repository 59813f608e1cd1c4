// The plan-memo contract (SimulatorParams::memo): a memoized campaign is
// bit-identical to the memo-free serial oracle (serial_reference.h) —
// for every mechanism granularity, with and without faults, at any
// plan-thread count — and the hit/miss
// accounting is deterministic across thread counts. The dense-POI scenario
// (home_sites + budget quantization) is the regime the memo exists for and
// must actually produce exact hits there. Runs under TSan in tier-1.
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

using sim::serial_reference::expect_bit_identical;

struct CampaignRun {
  sim::serial_reference::CampaignRun run;
  select::PlanMemoStats memo;
  sim::CampaignMetrics summary;
};

struct RunSpec {
  incentive::MechanismKind kind = incentive::MechanismKind::kOnDemand;
  bool faults = false;
  int plan_threads = 1;
  bool memo = false;
  bool dense = false;  // shared-POI homes + quantized budgets
  bool serial_reference = false;  // run serial_reference::run_reference
};

CampaignRun run_campaign(const RunSpec& spec) {
  sim::ScenarioParams p;
  p.num_users = 40;
  p.num_tasks = 12;
  p.required_measurements = 6;
  if (spec.dense) {
    // A handful of shared homes and budget buckets: many users start every
    // round bit-equal, the regime the memo is built for.
    p.home_sites = 4;
    p.user_budget_quantum_s = 150.0;
  }
  Rng rng(4242);
  model::World world = sim::generate_world(p, rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism = incentive::make_mechanism(spec.kind, world, {}, mech_rng);
  auto selector = select::make_selector(select::SelectorKind::kDp, 14);
  sim::SimulatorParams sp;
  sp.max_rounds = 8;
  sp.plan_threads = spec.plan_threads;
  sp.memo.enabled = spec.memo;
  if (spec.faults) sp.faults = stress_faults();
  CampaignRun out;
  if (spec.serial_reference) {
    out.run = sim::serial_reference::run_reference(
        std::move(world), std::move(mechanism), std::move(selector), sp);
    return out;
  }
  sim::Simulator s(std::move(world), std::move(mechanism),
                   std::move(selector), sp);
  out.summary = s.run();
  out.run = sim::serial_reference::finish(s);
  out.memo = s.plan_memo_stats();
  return out;
}

void expect_accounting_sane(const select::PlanMemoStats& s) {
  EXPECT_GE(s.exact_hits, 0);
  EXPECT_GE(s.fixup_hits, 0);
  EXPECT_GE(s.misses, 0);
  EXPECT_LE(s.fallbacks, s.misses);
  EXPECT_EQ(s.lookups(), s.hits() + s.misses);
}

// {fixed, on-demand, steered} x {clean, faults} x plan_threads {1, 2, 8}:
// the memoized campaign equals the memo-free serial reference bit for bit.
// Steered is intra-round — the memo is a documented no-op there, and this
// pins exactly that.
TEST(PlanMemoEquivalence, MemoOnMatchesMemoOffEverywhere) {
  for (const bool dense : {false, true}) {
    for (const auto kind : {incentive::MechanismKind::kFixed,
                            incentive::MechanismKind::kOnDemand,
                            incentive::MechanismKind::kSteered}) {
      for (const bool faults : {false, true}) {
        const CampaignRun baseline =
            run_campaign({kind, faults, 1, false, dense, true});
        for (const int threads : {1, 2, 8}) {
          SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                       (faults ? "/faults" : "/clean") +
                       (dense ? "/dense" : "/uniform") + "/threads=" +
                       std::to_string(threads));
          const CampaignRun memo =
              run_campaign({kind, faults, threads, true, dense});
          expect_bit_identical(baseline.run, memo.run);
          expect_accounting_sane(memo.memo);
        }
      }
    }
  }
}

TEST(PlanMemoEquivalence, AutoThreadCountBitIdentical) {
  const CampaignRun baseline = run_campaign(
      {incentive::MechanismKind::kOnDemand, true, 1, false, true, true});
  expect_bit_identical(
      baseline.run, run_campaign({incentive::MechanismKind::kOnDemand, true,
                                  0, true, true})
                        .run);
}

// The accounting itself is deterministic: each cell's table is classified,
// solved and published by one worker in user-position order, so hit/miss
// counts cannot depend on how the cells were spread over the workers.
TEST(PlanMemoEquivalence, HitAccountingIdenticalAcrossThreadCounts) {
  const CampaignRun serial = run_campaign(
      {incentive::MechanismKind::kOnDemand, false, 1, true, true});
  for (const int threads : {2, 8}) {
    const CampaignRun parallel = run_campaign(
        {incentive::MechanismKind::kOnDemand, false, threads, true, true});
    EXPECT_EQ(serial.memo.exact_hits, parallel.memo.exact_hits);
    EXPECT_EQ(serial.memo.fixup_hits, parallel.memo.fixup_hits);
    EXPECT_EQ(serial.memo.misses, parallel.memo.misses);
    EXPECT_EQ(serial.memo.fallbacks, parallel.memo.fallbacks);
    EXPECT_EQ(serial.memo.rounds, parallel.memo.rounds);
  }
}

// The dense-POI scenario must actually share solves — otherwise the memo
// is dead weight — and the campaign summary must surface the same numbers
// the simulator accessor reports.
TEST(PlanMemoEquivalence, DensePoiScenarioProducesExactHits) {
  const CampaignRun r = run_campaign(
      {incentive::MechanismKind::kOnDemand, false, 1, true, true});
  EXPECT_GT(r.memo.exact_hits, 0);
  EXPECT_GT(r.memo.rounds, 0);
  expect_accounting_sane(r.memo);
  EXPECT_EQ(r.summary.plan_exact_hits, r.memo.exact_hits);
  EXPECT_EQ(r.summary.plan_fixup_hits, r.memo.fixup_hits);
  EXPECT_EQ(r.summary.plan_misses, r.memo.misses);
  EXPECT_EQ(r.summary.plan_fallbacks, r.memo.fallbacks);
}

TEST(PlanMemoEquivalence, MemoOffReportsZeroActivity) {
  const CampaignRun r = run_campaign(
      {incentive::MechanismKind::kOnDemand, false, 1, false, true});
  EXPECT_EQ(r.memo.exact_hits, 0);
  EXPECT_EQ(r.memo.fixup_hits, 0);
  EXPECT_EQ(r.memo.misses, 0);
  EXPECT_EQ(r.memo.fallbacks, 0);
  EXPECT_EQ(r.memo.rounds, 0);
}

// Steered reprices within the round, so the memo must stay inert there —
// zero lookups, not merely zero hits.
TEST(PlanMemoEquivalence, IntraRoundMechanismIgnoresTheMemo) {
  const CampaignRun r = run_campaign(
      {incentive::MechanismKind::kSteered, false, 1, true, true});
  EXPECT_EQ(r.memo.lookups(), 0);
  EXPECT_EQ(r.memo.rounds, 0);
}

}  // namespace
}  // namespace mcs
