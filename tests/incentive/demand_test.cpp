#include "incentive/demand.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "incentive/demand_level.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/reward.h"

namespace mcs::incentive {
namespace {

constexpr double kLn2 = 0.6931471805599453;

TEST(DeadlineFactor, MatchesEq3) {
  // X1 = lambda1 * ln(1 + 1/(tau - (k-1)))
  EXPECT_DOUBLE_EQ(deadline_factor(10, 1, 1.0), std::log(1.0 + 1.0 / 10.0));
  EXPECT_DOUBLE_EQ(deadline_factor(10, 5, 1.0), std::log(1.0 + 1.0 / 6.0));
  EXPECT_DOUBLE_EQ(deadline_factor(10, 10, 1.0), kLn2);  // final round
}

TEST(DeadlineFactor, MonotoneIncreasingInRound) {
  double prev = 0.0;
  for (Round k = 1; k <= 10; ++k) {
    const double x = deadline_factor(10, k, 1.0);
    EXPECT_GT(x, prev);
    prev = x;
  }
}

TEST(DeadlineFactor, GrowthRateAccelerates) {
  // The paper: the growth rate itself increases approaching the deadline.
  double prev_delta = 0.0;
  for (Round k = 2; k <= 10; ++k) {
    const double delta =
        deadline_factor(10, k, 1.0) - deadline_factor(10, k - 1, 1.0);
    EXPECT_GT(delta, prev_delta);
    prev_delta = delta;
  }
}

TEST(DeadlineFactor, BoundedByLambdaLn2) {
  for (Round tau = 1; tau <= 30; ++tau) {
    for (Round k = 1; k <= tau; ++k) {
      const double x = deadline_factor(tau, k, 2.5);
      EXPECT_GT(x, 0.0);
      EXPECT_LE(x, 2.5 * kLn2 + 1e-12);
    }
  }
}

TEST(DeadlineFactor, ExpiredTaskHasZeroDemand) {
  EXPECT_DOUBLE_EQ(deadline_factor(5, 6, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(deadline_factor(5, 100, 1.0), 0.0);
}

TEST(DeadlineFactor, RejectsNonPositiveRound) {
  EXPECT_THROW(deadline_factor(5, 0, 1.0), Error);
}

TEST(ProgressFactor, MatchesEq4) {
  // X2 = lambda2 * ln(1 + (1 - pi/phi))
  EXPECT_DOUBLE_EQ(progress_factor(0, 20, 1.0), kLn2);
  EXPECT_DOUBLE_EQ(progress_factor(10, 20, 1.0), std::log(1.5));
  EXPECT_DOUBLE_EQ(progress_factor(20, 20, 1.0), 0.0);
}

TEST(ProgressFactor, MonotoneDecreasingInProgress) {
  double prev = 1e9;
  for (int received = 0; received <= 20; ++received) {
    const double x = progress_factor(received, 20, 1.0);
    EXPECT_LT(x, prev);
    prev = x;
  }
}

TEST(ProgressFactor, ReductionRateAccelerates) {
  // |d X2 / d progress| grows as progress -> 1 (concavity of ln).
  double prev_drop = 0.0;
  for (int received = 1; received <= 20; ++received) {
    const double drop = progress_factor(received - 1, 20, 1.0) -
                        progress_factor(received, 20, 1.0);
    EXPECT_GT(drop, prev_drop);
    prev_drop = drop;
  }
}

TEST(ProgressFactor, OverfilledTaskClampsToZero) {
  EXPECT_DOUBLE_EQ(progress_factor(25, 20, 1.0), 0.0);
}

TEST(ProgressFactor, Validation) {
  EXPECT_THROW(progress_factor(0, 0, 1.0), Error);
  EXPECT_THROW(progress_factor(-1, 5, 1.0), Error);
}

TEST(NeighborFactor, MatchesEq5) {
  // X3 = lambda3 * ln(1 + (1 - N/Nmax))
  EXPECT_DOUBLE_EQ(neighbor_factor(0, 10, 1.0), kLn2);
  EXPECT_DOUBLE_EQ(neighbor_factor(5, 10, 1.0), std::log(1.5));
  EXPECT_DOUBLE_EQ(neighbor_factor(10, 10, 1.0), 0.0);
}

TEST(NeighborFactor, MonotoneDecreasingInNeighbors) {
  double prev = 1e9;
  for (int n = 0; n <= 10; ++n) {
    const double x = neighbor_factor(n, 10, 1.0);
    EXPECT_LT(x, prev);
    prev = x;
  }
}

TEST(NeighborFactor, AllTasksStarvedWhenNoUsersAnywhere) {
  EXPECT_DOUBLE_EQ(neighbor_factor(0, 0, 1.0), kLn2);
}

TEST(NeighborFactor, Validation) {
  EXPECT_THROW(neighbor_factor(-1, 5, 1.0), Error);
  EXPECT_THROW(neighbor_factor(6, 5, 1.0), Error);
}

TEST(DemandParams, LambdaMax) {
  EXPECT_DOUBLE_EQ((DemandParams{1.0, 2.0, 0.5}).lambda_max(), 2.0);
  EXPECT_DOUBLE_EQ((DemandParams{}).lambda_max(), 1.0);
}

class DemandIndicatorTest : public ::testing::Test {
 protected:
  DemandIndicatorTest()
      : indicator_(DemandIndicator::with_paper_defaults()),
        world_(geo::BoundingBox::square(3000.0), geo::TravelModel{}, 500.0) {}

  DemandIndicator indicator_;
  model::World world_;
};

TEST_F(DemandIndicatorTest, PaperWeights) {
  ASSERT_EQ(indicator_.weights().size(), 3u);
  EXPECT_NEAR(indicator_.weights()[0], 0.648, 0.001);
  EXPECT_NEAR(indicator_.weights()[1], 0.230, 0.001);
  EXPECT_NEAR(indicator_.weights()[2], 0.122, 0.001);
}

TEST_F(DemandIndicatorTest, DemandIsWeightedSum) {
  world_.add_task({100, 100}, 10, 20);
  const model::Task& t = world_.task(0);
  const double d = indicator_.demand(t, 3, 2, 8);
  const auto& w = indicator_.weights();
  const double expected = w[0] * deadline_factor(10, 3, 1.0) +
                          w[1] * progress_factor(0, 20, 1.0) +
                          w[2] * neighbor_factor(2, 8, 1.0);
  EXPECT_DOUBLE_EQ(d, expected);
}

TEST_F(DemandIndicatorTest, CompletedAndExpiredTasksHaveZeroDemand) {
  world_.add_task({0, 0}, 2, 1);
  world_.task(0).add_measurement(0, 1, 0.5);
  EXPECT_DOUBLE_EQ(indicator_.demand(world_.task(0), 2, 0, 5), 0.0);

  world_.add_task({0, 0}, 2, 1);
  EXPECT_DOUBLE_EQ(indicator_.demand(world_.task(1), 3, 0, 5), 0.0);
}

TEST_F(DemandIndicatorTest, NormalizationBoundsRespected) {
  world_.add_task({0, 0}, 1, 20);  // final round, zero progress -> max demand
  // Nmax=0 (no users): neighbor factor also at max -> total = lambda_max ln2.
  const double d = indicator_.demand(world_.task(0), 1, 0, 0);
  EXPECT_NEAR(indicator_.normalize(d), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(indicator_.normalize(0.0), 0.0);
  EXPECT_DOUBLE_EQ(indicator_.normalize(-1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(indicator_.normalize(100.0), 1.0);  // clamped
}

TEST_F(DemandIndicatorTest, WorldDemandsVectorised) {
  world_.add_task({0, 0}, 10, 20);
  world_.add_task({3000, 3000}, 10, 20);
  world_.add_user({10, 10}, 600.0);  // neighbor of task 0 only
  const auto demands = indicator_.demands(world_, 1);
  ASSERT_EQ(demands.size(), 2u);
  // Task 1 has fewer neighbors -> strictly higher demand.
  EXPECT_GT(demands[1], demands[0]);
  const auto normalized = indicator_.normalized_demands(world_, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(normalized[i], 0.0);
    EXPECT_LE(normalized[i], 1.0);
    EXPECT_NEAR(normalized[i], indicator_.normalize(demands[i]), 1e-15);
  }
}

TEST_F(DemandIndicatorTest, PrecomputedNeighborCountsMatchRecount) {
  world_.add_task({0, 0}, 10, 20);
  world_.add_task({3000, 3000}, 10, 20);
  world_.add_user({10, 10}, 600.0);
  const std::vector<int> counts = world_.neighbor_counts();
  const auto recounted = indicator_.demands(world_, 1);
  const auto precomputed = indicator_.demands(world_, 1, counts);
  ASSERT_EQ(recounted.size(), precomputed.size());
  for (std::size_t i = 0; i < recounted.size(); ++i) {
    EXPECT_EQ(recounted[i], precomputed[i]);  // bit-identical, same code path
  }
  // Wrong-sized count vectors are a caller bug, not silently truncated.
  EXPECT_THROW(indicator_.demands(world_, 1, {1}), Error);
}

TEST_F(DemandIndicatorTest, LostProgressKeepsDemandInflated) {
  // The fault layer's degradation story in one assertion: a measurement
  // that never reaches the platform (lost upload -> no add_measurement)
  // leaves demand exactly where it was, while a delivered one deflates it.
  world_.add_task({0, 0}, 10, 5);
  const double before = indicator_.demand(world_.task(0), 2, 0, 0);
  // Lost upload: nothing recorded, demand recomputes unchanged.
  EXPECT_DOUBLE_EQ(indicator_.demand(world_.task(0), 2, 0, 0), before);
  // Delivered upload: progress advances, demand strictly drops.
  world_.task(0).add_measurement(0, 1, 0.5);
  EXPECT_LT(indicator_.demand(world_.task(0), 2, 0, 0), before);
}

TEST(DemandIndicator, CustomMatrixWeightsAreUsed) {
  // All-equal criteria -> weights 1/3 each.
  const DemandIndicator ind(DemandParams{}, ahp::ComparisonMatrix(3));
  for (const double w : ind.weights()) EXPECT_NEAR(w, 1.0 / 3.0, 1e-12);
}

TEST(DemandIndicator, ExplicitWeightsBypassAhp) {
  const DemandIndicator deadline_only(DemandParams{}, {1.0, 0.0, 0.0});
  model::World w(geo::BoundingBox::square(100.0), geo::TravelModel{}, 10.0);
  w.add_task({0, 0}, 10, 20);
  // Only X1 contributes: demand equals the bare deadline factor.
  EXPECT_DOUBLE_EQ(deadline_only.demand(w.task(0), 4, 0, 5),
                   deadline_factor(10, 4, 1.0));
}

TEST(DemandIndicator, ExplicitWeightValidation) {
  EXPECT_THROW(DemandIndicator(DemandParams{}, {0.5, 0.5}), Error);
  EXPECT_THROW(DemandIndicator(DemandParams{}, {0.5, 0.6, 0.1}), Error);
  EXPECT_THROW(DemandIndicator(DemandParams{}, {1.5, -0.5, 0.0}), Error);
  EXPECT_NO_THROW(DemandIndicator(DemandParams{}, {0.2, 0.3, 0.5}));
}

TEST(DemandIndicator, RejectsBadConstruction) {
  EXPECT_THROW(DemandIndicator(DemandParams{0.0, 1.0, 1.0},
                               ahp::ComparisonMatrix(3)),
               Error);
  EXPECT_THROW(DemandIndicator(DemandParams{}, ahp::ComparisonMatrix(4)),
               Error);
}

// Property sweep: for every (tau, k, pi, Ni) grid point, demand is within
// [0, lambda_max ln 2] and normalized demand within [0,1].
class DemandBoundsProperty : public ::testing::TestWithParam<int> {};

TEST_P(DemandBoundsProperty, AlwaysInRange) {
  const int tau = GetParam();
  const auto indicator = DemandIndicator::with_paper_defaults();
  model::World world(geo::BoundingBox::square(100.0), geo::TravelModel{}, 10.0);
  world.add_task({0, 0}, tau, 10);
  model::Task& t = world.task(0);
  int next_user = 0;
  for (int pi = 0; pi <= 10; ++pi) {
    if (pi > 0) t.add_measurement(next_user++, 1, 0.5);
    for (Round k = 1; k <= tau; ++k) {
      for (int ni = 0; ni <= 5; ++ni) {
        const double d = indicator.demand(t, k, ni, 5);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, std::log(2.0) + 1e-12);
        const double norm = indicator.normalize(d);
        EXPECT_GE(norm, 0.0);
        EXPECT_LE(norm, 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Deadlines, DemandBoundsProperty,
                         ::testing::Values(1, 2, 5, 15, 40));

// demands() sweeps the raw store columns; it must equal the per-task
// demand() view path bit for bit across progress states (fresh, partial,
// completed, overfilled) and rounds (live, final, expired).
TEST(DemandIndicator, ColumnSweepMatchesPerTaskDemandBitExact) {
  const auto indicator = DemandIndicator::with_paper_defaults();
  model::World world(geo::BoundingBox::square(1000.0), geo::TravelModel{},
                     100.0);
  world.add_task({100, 100}, /*deadline=*/3, /*required=*/4);   // fresh
  world.add_task({200, 200}, 8, 3);                             // partial
  world.add_task({300, 300}, 8, 2);                             // completed
  world.add_task({400, 400}, 2, 1);                             // expires early
  world.add_task({500, 500}, 8, 2);                             // overfilled
  world.task(1).add_measurement(0, 1, 0.5);
  world.task(2).add_measurement(0, 1, 0.5);
  world.tasks()[2].add_measurement(1, 1, 0.5);
  for (int i = 0; i < 3; ++i) world.tasks()[4].add_measurement(i, 1, 0.5);
  const std::vector<int> counts = {0, 1, 2, 3, 1};
  for (const Round k : {1, 2, 3, 8}) {
    const std::vector<double> swept = indicator.demands(world, k, counts);
    ASSERT_EQ(swept.size(), world.num_tasks());
    for (std::size_t i = 0; i < world.num_tasks(); ++i) {
      EXPECT_EQ(swept[i], indicator.demand(world.tasks()[i], k, counts[i], 3))
          << "task " << i << " round " << k;
    }
  }
}

// The on-demand mechanism fuses demand, normalize and level into one sweep
// over the store columns; it must equal the two-pass serial oracle —
// demands() then normalize(), then levels_for() — bit for bit, and so must
// normalized_demands().
TEST(DemandIndicator, FusedNormalizeMatchesTwoPassBitExact) {
  const auto indicator = DemandIndicator::with_paper_defaults();
  const DemandLevelScale scale(5);
  model::World world(geo::BoundingBox::square(1000.0), geo::TravelModel{},
                     100.0);
  world.add_task({100, 100}, /*deadline=*/6, /*required=*/4);
  world.add_task({200, 200}, 8, 3);
  world.add_task({300, 300}, 2, 2);
  world.task(1).add_measurement(0, 1, 0.5);
  world.add_user({100, 120}, 600.0);  // neighbor of task 0
  world.add_user({210, 200}, 600.0);  // neighbor of task 1
  world.add_user({200, 190}, 600.0);  // neighbor of task 1
  world.add_user({300, 300}, 600.0);  // neighbor of task 2
  ASSERT_EQ(world.neighbor_counts(), (std::vector<int>{1, 2, 1}));
  OnDemandMechanism fused(indicator, scale,
                          RewardRule::from_budget(100.0, 9, 0.5, 5));
  for (const Round k : {1, 2, 3}) {
    std::vector<double> two_pass = indicator.demands(world, k);
    for (double& d : two_pass) d = indicator.normalize(d);
    EXPECT_EQ(indicator.normalized_demands(world, k), two_pass)
        << "round " << k;
    fused.update_rewards(world, k);
    EXPECT_EQ(fused.last_normalized_demands(), two_pass) << "round " << k;
    EXPECT_EQ(fused.last_levels(), scale.levels_for(two_pass))
        << "round " << k;
  }
}

}  // namespace
}  // namespace mcs::incentive
