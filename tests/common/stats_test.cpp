#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace mcs {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_THROW(s.min(), Error);
  EXPECT_THROW(s.max(), Error);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook dataset
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(17);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Quantile, MedianAndExtremes) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.5);
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Quantile, Errors) {
  EXPECT_THROW(quantile({}, 0.5), Error);
  EXPECT_THROW(quantile({1.0}, 1.5), Error);
}

TEST(QuantileSorted, MatchesTheCopyingOverload) {
  Rng rng(31);
  std::vector<double> v;
  for (int i = 0; i < 257; ++i) v.push_back(rng.normal(10.0, 4.0));
  std::vector<double> sorted(v);
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile_sorted(sorted, q), quantile(v, q)) << "q=" << q;
  }
}

TEST(QuantileSorted, Errors) {
  EXPECT_THROW(quantile_sorted({}, 0.5), Error);
  EXPECT_THROW(quantile_sorted({1.0}, -0.1), Error);
}

// boxplot_summary now uses the sorted-input quantile path (one sort total
// instead of one plus three copy+re-sorts); the reported numbers must be
// exactly what the by-value quantile produces.
TEST(Boxplot, SortedPathMatchesQuantileOverload) {
  Rng rng(47);
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(rng.uniform(-50.0, 50.0));
  const BoxplotSummary s = boxplot_summary(v);
  EXPECT_DOUBLE_EQ(s.q1, quantile(v, 0.25));
  EXPECT_DOUBLE_EQ(s.median, quantile(v, 0.5));
  EXPECT_DOUBLE_EQ(s.q3, quantile(v, 0.75));
}

TEST(Boxplot, SymmetricData) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const BoxplotSummary s = boxplot_summary(v);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.q1, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(s.whisker_high, 9.0);
  EXPECT_EQ(s.n_outliers, 0u);
}

TEST(Boxplot, DetectsOutliers) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 100.0};
  const BoxplotSummary s = boxplot_summary(v);
  EXPECT_EQ(s.n_outliers, 1u);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_LT(s.whisker_high, 100.0);
}

TEST(Boxplot, ConstantData) {
  const std::vector<double> v{4, 4, 4, 4};
  const BoxplotSummary s = boxplot_summary(v);
  EXPECT_DOUBLE_EQ(s.median, 4.0);
  EXPECT_DOUBLE_EQ(s.q1, 4.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_EQ(s.n_outliers, 0u);
}

TEST(PopulationVariance, MatchesRunningStats) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(population_variance(v), 4.0);
  EXPECT_DOUBLE_EQ(population_variance({}), 0.0);
}

TEST(MeanOf, Basics) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

}  // namespace
}  // namespace mcs
