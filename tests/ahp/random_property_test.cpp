// Randomized AHP properties: weight extractors on random consistent and
// random Saaty-scale matrices, ranking invariants, and consistency-ratio
// behaviour under increasing perturbation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "ahp/comparison_matrix.h"
#include "ahp/consistency.h"
#include "ahp/weights.h"
#include "common/rng.h"

namespace mcs::ahp {
namespace {

class RandomConsistent : public ::testing::TestWithParam<int> {};

TEST_P(RandomConsistent, AllMethodsRecoverGeneratingWeights) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 77 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w(static_cast<std::size_t>(n));
    double sum = 0.0;
    for (double& x : w) {
      x = rng.uniform(0.05, 1.0);
      sum += x;
    }
    for (double& x : w) x /= sum;
    const auto m = consistent_matrix_from_weights(w);
    for (const auto method :
         {WeightMethod::kRowAverage, WeightMethod::kGeometricMean,
          WeightMethod::kEigenvector}) {
      const auto got = compute_weights(m, method);
      for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_NEAR(got[i], w[i], 1e-6)
            << weight_method_name(method) << " n=" << n << " trial " << trial;
      }
    }
    // lambda_max == n for consistent matrices.
    const ConsistencyReport r = check_consistency(m);
    EXPECT_NEAR(r.lambda_max, static_cast<double>(n), 1e-6);
    EXPECT_NEAR(r.cr, 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomConsistent, ::testing::Values(2, 3, 5, 8));

class RandomSaaty : public ::testing::TestWithParam<int> {};

TEST_P(RandomSaaty, WeightsValidAndLambdaMaxAtLeastN) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 131 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    ComparisonMatrix m(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      for (std::size_t j = i + 1; j < static_cast<std::size_t>(n); ++j) {
        const double v = static_cast<double>(rng.uniform_int(1, 9));
        m.set(i, j, rng.bernoulli(0.5) ? v : 1.0 / v);
      }
    }
    for (const auto method :
         {WeightMethod::kRowAverage, WeightMethod::kGeometricMean,
          WeightMethod::kEigenvector}) {
      const auto w = compute_weights(m, method);
      double sum = 0.0;
      for (const double x : w) {
        EXPECT_GT(x, 0.0);
        sum += x;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
    // Perron-Frobenius: the principal eigenvalue of a positive reciprocal
    // matrix is >= n (equality iff consistent).
    const EigenResult eig = eigenvector_weights(m);
    EXPECT_TRUE(eig.converged);
    EXPECT_GE(eig.lambda_max, static_cast<double>(n) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomSaaty, ::testing::Values(3, 4, 6, 9));

TEST(ConsistencyRatio, GrowsWithPerturbation) {
  // Start from a consistent matrix and progressively corrupt one entry;
  // the consistency ratio must grow monotonically with the corruption.
  const std::vector<double> w{0.5, 0.3, 0.2};
  double prev_cr = -1.0;
  for (const double factor : {1.0, 2.0, 4.0, 8.0}) {
    auto m = consistent_matrix_from_weights(w);
    m.set(0, 2, m.at(0, 2) * factor);
    const ConsistencyReport r = check_consistency(m);
    EXPECT_GT(r.cr, prev_cr);
    prev_cr = r.cr;
  }
  EXPECT_GT(prev_cr, 0.1);  // an 8x corruption must be rejected
}

}  // namespace
}  // namespace mcs::ahp
