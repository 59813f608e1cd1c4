// Cross-solver properties: on random instances small enough for the
// exhaustive oracle, DP == brute force == branch-and-bound (same optimal
// profit), every solver dominates greedy, and the simulator's solvers are
// blind to candidates beyond the travel-distance budget.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "geo/distance.h"
#include "select/branch_bound_selector.h"
#include "select/brute_force_selector.h"
#include "select/dp_selector.h"
#include "select/greedy_selector.h"
#include "select/selector.h"

namespace mcs::select {
namespace {

struct Scenario {
  int num_candidates;
  double budget_s;
  double cost_per_meter;
};

// gtest prints the parameter into the listed test, and ctest names the
// test after it: print the fields, e.g. "m7_1500s_2perkm". The default
// printer would dump the struct's bytes, uninitialised padding included,
// so the test names would change from build to build.
void PrintTo(const Scenario& sc, std::ostream* os) {
  *os << 'm' << sc.num_candidates << '_' << static_cast<int>(sc.budget_s)
      << "s_" << std::lround(sc.cost_per_meter * 1000) << "perkm";
}

void expect_bit_identical(const Selection& a, const Selection& b,
                          const char* solver, int trial) {
  EXPECT_EQ(a.order, b.order) << solver << " trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.distance),
            std::bit_cast<std::uint64_t>(b.distance))
      << solver << " trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.reward),
            std::bit_cast<std::uint64_t>(b.reward))
      << solver << " trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cost),
            std::bit_cast<std::uint64_t>(b.cost))
      << solver << " trial " << trial;
}

class SolverEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(SolverEquivalence, OptimalSolversAgreeAndDominateGreedy) {
  const Scenario sc = GetParam();
  const DpSelector dp(14);
  const BruteForceSelector brute(9);
  const BranchBoundSelector bb;
  const GreedySelector greedy;
  const GreedySelector greedy_2opt(/*improve_with_two_opt=*/true);

  Rng rng(static_cast<std::uint64_t>(sc.num_candidates) * 1000 +
          static_cast<std::uint64_t>(sc.budget_s));
  for (int trial = 0; trial < 40; ++trial) {
    SelectionInstance inst;
    inst.start = {rng.uniform(0, 2000), rng.uniform(0, 2000)};
    inst.travel.cost_per_meter = sc.cost_per_meter;
    inst.time_budget = sc.budget_s;
    for (int i = 0; i < sc.num_candidates; ++i) {
      inst.candidates.push_back(
          {i, {rng.uniform(0, 2000), rng.uniform(0, 2000)}, rng.uniform(0.25, 2.5)});
    }

    const Selection s_dp = dp.select(inst);
    const Selection s_bf = brute.select(inst);
    const Selection s_bb = bb.select(inst);
    const Selection s_gr = greedy.select(inst);

    // All exact solvers find the same optimum.
    EXPECT_NEAR(s_dp.profit(), s_bf.profit(), 1e-9) << "trial " << trial;
    EXPECT_NEAR(s_bb.profit(), s_bf.profit(), 1e-9) << "trial " << trial;
    // The optimum dominates the heuristic.
    EXPECT_GE(s_dp.profit(), s_gr.profit() - 1e-9) << "trial " << trial;
    // Everything is feasible.
    EXPECT_TRUE(is_feasible(inst, s_dp));
    EXPECT_TRUE(is_feasible(inst, s_bf));
    EXPECT_TRUE(is_feasible(inst, s_bb));

    // The simulator lists only the candidates whose start leg fits the
    // travel-distance budget. Every solver it runs campaigns with must be
    // blind to that filter, bit for bit. ILS is not in the list: it seeds
    // its perturbation stream from candidates.size(). Neither is beam
    // search: its completion bound counts unreachable candidates through
    // TravelGraph::min_incoming().
    SelectionInstance reach = inst;
    std::erase_if(reach.candidates, [&](const Candidate& c) {
      return geo::euclidean(inst.start, c.location) > inst.distance_budget();
    });
    expect_bit_identical(dp.select(reach), s_dp, "dp", trial);
    expect_bit_identical(brute.select(reach), s_bf, "brute-force", trial);
    expect_bit_identical(bb.select(reach), s_bb, "branch-bound", trial);
    expect_bit_identical(greedy.select(reach), s_gr, "greedy", trial);
    expect_bit_identical(greedy_2opt.select(reach), greedy_2opt.select(inst),
                         "greedy+2opt", trial);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverEquivalence,
    ::testing::Values(Scenario{3, 600.0, 0.002}, Scenario{5, 600.0, 0.002},
                      Scenario{7, 600.0, 0.002}, Scenario{7, 1500.0, 0.002},
                      Scenario{7, 200.0, 0.002}, Scenario{6, 900.0, 0.01},
                      Scenario{8, 1200.0, 0.004}));

TEST(SolverEquivalence, DpAndBranchBoundAgreeOnLargerInstances) {
  // Beyond brute-force reach but still exact for both.
  const DpSelector dp(14);
  const BranchBoundSelector bb;
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    SelectionInstance inst;
    inst.start = {1000, 1000};
    inst.travel = {};
    inst.time_budget = 1200.0;
    for (int i = 0; i < 13; ++i) {
      inst.candidates.push_back(
          {i, {rng.uniform(0, 3000), rng.uniform(0, 3000)}, rng.uniform(0.5, 2.5)});
    }
    EXPECT_NEAR(dp.select(inst).profit(), bb.select(inst).profit(), 1e-9)
        << "trial " << trial;
  }
}

TEST(BruteForce, RefusesOversizedInstances) {
  const BruteForceSelector brute(4);
  SelectionInstance inst;
  inst.start = {0, 0};
  inst.travel = {};
  inst.time_budget = 100.0;
  for (int i = 0; i < 5; ++i) inst.candidates.push_back({i, {1, 1}, 1.0});
  EXPECT_THROW(brute.select(inst), Error);
}

TEST(SelectorFactory, BuildsEveryKind) {
  for (const auto kind :
       {SelectorKind::kDp, SelectorKind::kGreedy, SelectorKind::kGreedy2Opt,
        SelectorKind::kBranchBound, SelectorKind::kBruteForce}) {
    const auto s = make_selector(kind);
    ASSERT_NE(s, nullptr);
    EXPECT_STREQ(s->name(), selector_name(kind));
  }
}

TEST(SelectorFactory, ParseNames) {
  EXPECT_EQ(parse_selector("dp"), SelectorKind::kDp);
  EXPECT_EQ(parse_selector("GREEDY"), SelectorKind::kGreedy);
  EXPECT_EQ(parse_selector("greedy+2opt"), SelectorKind::kGreedy2Opt);
  EXPECT_EQ(parse_selector("bb"), SelectorKind::kBranchBound);
  EXPECT_EQ(parse_selector("brute-force"), SelectorKind::kBruteForce);
  EXPECT_THROW(parse_selector("oracle"), Error);
}

}  // namespace
}  // namespace mcs::select
