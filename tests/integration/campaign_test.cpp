// End-to-end campaigns on paper-scale scenarios: every system invariant
// that must hold across a whole simulation, for every mechanism and both
// main selectors.
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <set>
#include <string>

#include "exp/runner.h"
#include "incentive/mechanism.h"
#include "select/selector.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace mcs {
namespace {

struct CampaignCase {
  incentive::MechanismKind mechanism;
  select::SelectorKind selector;
};

class CampaignInvariants : public ::testing::TestWithParam<CampaignCase> {};

// gtest prints the parameter into the listed test, and ctest names the
// test after it: print the names, e.g. "on_demand_greedy_2opt", instead of
// the default byte dump.
void PrintTo(const CampaignCase& cc, std::ostream* os) {
  std::string name = std::string(incentive::mechanism_name(cc.mechanism)) +
                     '_' + select::selector_name(cc.selector);
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  *os << name;
}

TEST_P(CampaignInvariants, HoldOverFullCampaign) {
  const CampaignCase cc = GetParam();
  sim::ScenarioParams params;
  params.num_users = 60;  // keep the DP cases quick
  Rng rng(2024);
  model::World world = sim::generate_world(params, rng);
  const long long total_required = world.total_required();

  incentive::MechanismParams mp;
  Rng mech_rng = rng.split(1);
  auto mech = incentive::make_mechanism(cc.mechanism, world, mp, mech_rng);
  auto sel = select::make_selector(cc.selector, 14);
  sim::SimulatorParams sp;
  sp.max_rounds = 15;
  sp.platform_budget = mp.platform_budget;
  sp.record_events = true;
  sim::Simulator s(std::move(world), std::move(mech), std::move(sel), sp);

  Money paid_so_far = 0.0;
  long long seen = 0;
  while (s.current_round() < 15 && !s.all_tasks_closed()) {
    const sim::RoundMetrics& rm = s.step();

    // Measurement accounting is exact and monotone.
    EXPECT_EQ(rm.total_measurements, seen + rm.new_measurements);
    seen = rm.total_measurements;

    // Coverage and completeness are percentages and never regress.
    EXPECT_GE(rm.coverage_pct, 0.0);
    EXPECT_LE(rm.coverage_pct, 100.0);
    EXPECT_GE(rm.completeness_pct, 0.0);
    EXPECT_LE(rm.completeness_pct, 100.0);
    if (s.history().size() >= 2) {
      const auto& prev = s.history()[s.history().size() - 2];
      EXPECT_GE(rm.coverage_pct, prev.coverage_pct);
      EXPECT_GE(rm.completeness_pct, prev.completeness_pct);
    }

    // Rational users: per-round profit of every user is non-negative.
    for (const Money p : rm.user_profit) EXPECT_GE(p, -1e-9);

    // Payouts are non-negative and accumulate into the tracker.
    EXPECT_GE(rm.payout, 0.0);
    paid_so_far += rm.payout;
    EXPECT_NEAR(paid_so_far, s.budget().spent(), 1e-9);
  }

  const sim::CampaignMetrics m = s.summary();

  // The platform never pays more than the worst case of Eq. 8 allows; with
  // the paper's parameterization that bound equals the budget, and in
  // practice the spend stays below it (overflow within a completing round
  // is possible in principle, which is why overdraft is tracked).
  EXPECT_DOUBLE_EQ(m.budget_overdraft, s.budget().overdraft());
  if (cc.mechanism != incentive::MechanismKind::kSteered) {
    EXPECT_LE(s.budget().spent(),
              sp.platform_budget + 2.5 /*one max-reward of slack*/);
  }

  // Each user contributed at most once per task; totals are consistent.
  EXPECT_EQ(m.total_measurements, s.world().total_received());
  EXPECT_LE(m.total_measurements,
            static_cast<long long>(s.world().num_users()) *
                static_cast<long long>(s.world().num_tasks()));
  for (const model::Task& t : s.world().tasks()) {
    std::set<UserId> users;
    for (const auto& e : t.measurements()) {
      EXPECT_TRUE(users.insert(e.user).second);
      EXPECT_LE(e.round, t.deadline());
    }
  }

  // Useful measurements never exceed the requirement.
  long long useful = 0;
  for (const model::Task& t : s.world().tasks()) {
    useful += std::min(t.received(), t.required());
  }
  EXPECT_LE(useful, total_required);
  EXPECT_NEAR(m.completeness_pct,
              100.0 * static_cast<double>(useful) /
                  static_cast<double>(total_required),
              1e-9);

  // The event trace is a faithful journal.
  EXPECT_EQ(static_cast<long long>(s.events().size()), m.total_measurements);
  Money trace_paid = 0.0;
  for (const auto& e : s.events().events()) trace_paid += e.reward;
  EXPECT_NEAR(trace_paid, s.budget().spent(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsAndSelectors, CampaignInvariants,
    ::testing::Values(
        CampaignCase{incentive::MechanismKind::kOnDemand,
                     select::SelectorKind::kDp},
        CampaignCase{incentive::MechanismKind::kOnDemand,
                     select::SelectorKind::kGreedy},
        CampaignCase{incentive::MechanismKind::kFixed,
                     select::SelectorKind::kDp},
        CampaignCase{incentive::MechanismKind::kFixed,
                     select::SelectorKind::kGreedy},
        CampaignCase{incentive::MechanismKind::kSteered,
                     select::SelectorKind::kDp},
        CampaignCase{incentive::MechanismKind::kSteered,
                     select::SelectorKind::kGreedy},
        CampaignCase{incentive::MechanismKind::kOnDemand,
                     select::SelectorKind::kGreedy2Opt},
        CampaignCase{incentive::MechanismKind::kOnDemand,
                     select::SelectorKind::kBranchBound}));

}  // namespace
}  // namespace mcs
