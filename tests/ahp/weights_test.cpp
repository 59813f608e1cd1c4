#include "ahp/weights.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "common/rng.h"

namespace mcs::ahp {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(Weights, PaperTableIRowAverage) {
  const auto m = ComparisonMatrix::from_upper_triangle(3, {3.0, 5.0, 2.0});
  const auto w = row_average_weights(m);
  // §IV-B of the paper: W = (0.648, 0.230, 0.122).
  EXPECT_NEAR(w[0], 0.648, 0.001);
  EXPECT_NEAR(w[1], 0.230, 0.001);
  EXPECT_NEAR(w[2], 0.122, 0.001);
  EXPECT_NEAR(sum(w), 1.0, 1e-12);
}

TEST(Weights, AllMethodsSumToOne) {
  const auto m = ComparisonMatrix::from_upper_triangle(4, {2, 4, 8, 2, 4, 2});
  for (const auto method :
       {WeightMethod::kRowAverage, WeightMethod::kGeometricMean,
        WeightMethod::kEigenvector}) {
    const auto w = compute_weights(m, method);
    ASSERT_EQ(w.size(), 4u);
    EXPECT_NEAR(sum(w), 1.0, 1e-9) << weight_method_name(method);
    for (const double x : w) EXPECT_GT(x, 0.0);
  }
}

TEST(Weights, MethodsAgreeOnConsistentMatrices) {
  const std::vector<double> true_w{0.5, 0.3, 0.15, 0.05};
  const auto m = consistent_matrix_from_weights(true_w);
  for (const auto method :
       {WeightMethod::kRowAverage, WeightMethod::kGeometricMean,
        WeightMethod::kEigenvector}) {
    const auto w = compute_weights(m, method);
    for (std::size_t i = 0; i < true_w.size(); ++i) {
      EXPECT_NEAR(w[i], true_w[i], 1e-6) << weight_method_name(method);
    }
  }
}

TEST(Weights, EigenvectorLambdaMaxEqualsNForConsistent) {
  const auto m = consistent_matrix_from_weights({3.0, 2.0, 1.0, 0.5});
  const EigenResult r = eigenvector_weights(m);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.lambda_max, 4.0, 1e-8);
}

TEST(Weights, EigenvectorLambdaMaxExceedsNForInconsistent) {
  const auto m = ComparisonMatrix::from_upper_triangle(3, {3.0, 5.0, 2.0});
  const EigenResult r = eigenvector_weights(m);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.lambda_max, 3.0);
  EXPECT_LT(r.lambda_max, 3.1);  // Table I is nearly consistent
}

TEST(Weights, EigenvectorIsFixedPoint) {
  const auto m = ComparisonMatrix::from_upper_triangle(3, {3.0, 5.0, 2.0});
  const EigenResult r = eigenvector_weights(m);
  // A*w should be proportional to w with factor lambda_max.
  const auto aw = m.multiply(r.weights);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(aw[i] / r.weights[i], r.lambda_max, 1e-6);
  }
}

TEST(Weights, OrderPreservation) {
  // Random Saaty-scale matrices: the row-average weights of a matrix where
  // criterion 0 dominates everything must rank it first.
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    ComparisonMatrix m(4);
    for (std::size_t j = 1; j < 4; ++j) {
      m.set(0, j, static_cast<double>(rng.uniform_int(5, 9)));
    }
    for (std::size_t i = 1; i < 4; ++i) {
      for (std::size_t j = i + 1; j < 4; ++j) {
        m.set(i, j, 1.0 / static_cast<double>(rng.uniform_int(1, 3)));
      }
    }
    for (const auto method :
         {WeightMethod::kRowAverage, WeightMethod::kGeometricMean,
          WeightMethod::kEigenvector}) {
      const auto w = compute_weights(m, method);
      for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_GT(w[0], w[i]) << weight_method_name(method);
      }
    }
  }
}

TEST(Weights, EstimateLambdaMaxMatchesEigenEstimate) {
  const auto m = ComparisonMatrix::from_upper_triangle(3, {2.0, 6.0, 3.0});
  const EigenResult r = eigenvector_weights(m);
  EXPECT_NEAR(estimate_lambda_max(m, r.weights), r.lambda_max, 1e-9);
}

TEST(Weights, MethodNames) {
  EXPECT_STREQ(weight_method_name(WeightMethod::kRowAverage), "row-average");
  EXPECT_STREQ(weight_method_name(WeightMethod::kGeometricMean),
               "geometric-mean");
  EXPECT_STREQ(weight_method_name(WeightMethod::kEigenvector), "eigenvector");
}

TEST(Weights, TrivialOneByOne) {
  const ComparisonMatrix m(1);
  for (const auto method :
       {WeightMethod::kRowAverage, WeightMethod::kGeometricMean,
        WeightMethod::kEigenvector}) {
    const auto w = compute_weights(m, method);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
  }
}

}  // namespace
}  // namespace mcs::ahp
