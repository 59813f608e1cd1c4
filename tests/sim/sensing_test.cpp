#include "sim/sensing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace mcs::sim {
namespace {

TEST(Sensing, PopulationDraw) {
  Rng rng(1);
  const auto pop = draw_sensor_population(500, 2.0, 0.5, 1.5, rng);
  ASSERT_EQ(pop.size(), 500u);
  double bias_sum = 0.0;
  for (const auto& s : pop) {
    EXPECT_GE(s.noise_stddev, 0.5);
    EXPECT_LE(s.noise_stddev, 1.5);
    bias_sum += s.bias;
  }
  EXPECT_NEAR(bias_sum / 500.0, 0.0, 0.3);  // biases centered at 0
  EXPECT_THROW(draw_sensor_population(5, -1.0, 0.0, 1.0, rng), Error);
  EXPECT_THROW(draw_sensor_population(5, 1.0, 2.0, 1.0, rng), Error);
}

TEST(Sensing, SenseAddsBiasAndNoise) {
  Rng rng(2);
  const SensorProfile clean{0.0, 0.0};
  EXPECT_DOUBLE_EQ(sense(42.0, clean, rng), 42.0);
  const SensorProfile biased{3.0, 0.0};
  EXPECT_DOUBLE_EQ(sense(42.0, biased, rng), 45.0);
  const SensorProfile noisy{0.0, 1.0};
  double var = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double e = sense(0.0, noisy, rng);
    var += e * e;
  }
  EXPECT_NEAR(var / 10000.0, 1.0, 0.1);
}

TEST(Aggregate, MeanMedianTrimmed) {
  const std::vector<double> v{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregator::kMean), 22.0);
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregator::kMedian), 3.0);
  // n=5 -> trim 1 each side -> mean(2,3,4)=3.
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregator::kTrimmedMean), 3.0);
  EXPECT_DOUBLE_EQ(aggregate({5.0}, Aggregator::kMedian), 5.0);
  EXPECT_DOUBLE_EQ(aggregate({5.0}, Aggregator::kTrimmedMean), 5.0);
  EXPECT_DOUBLE_EQ(aggregate({1.0, 3.0}, Aggregator::kMedian), 2.0);
  EXPECT_THROW(aggregate({}, Aggregator::kMean), Error);
}

TEST(Aggregate, MedianRobustToOutliers) {
  // One corrupted reading moves the mean but not the median.
  const std::vector<double> good{10, 10.5, 9.5, 10.2, 9.8};
  std::vector<double> corrupted = good;
  corrupted.push_back(1000.0);
  EXPECT_GT(aggregate(corrupted, Aggregator::kMean), 100.0);
  EXPECT_NEAR(aggregate(corrupted, Aggregator::kMedian), 10.0, 0.5);
}

TEST(Aggregate, Names) {
  EXPECT_STREQ(aggregator_name(Aggregator::kMean), "mean");
  EXPECT_STREQ(aggregator_name(Aggregator::kMedian), "median");
  EXPECT_STREQ(aggregator_name(Aggregator::kTrimmedMean), "trimmed-mean");
}

TEST(QualityCurve, RmseDecreasesWithMeasurements) {
  Rng rng(3);
  const auto pop = draw_sensor_population(100, 1.0, 0.5, 2.0, rng);
  const auto rmse = quality_curve(pop, 20, 400, Aggregator::kMean, rng);
  ASSERT_EQ(rmse.size(), 20u);
  // Not necessarily monotone sample-by-sample, but the endpoints must obey
  // the law of large numbers decisively.
  EXPECT_LT(rmse[19], 0.6 * rmse[0]);
  EXPECT_LT(rmse[9], rmse[0]);
  for (const double r : rmse) EXPECT_GT(r, 0.0);
}

TEST(QualityCurve, Validation) {
  Rng rng(4);
  const auto pop = draw_sensor_population(10, 1.0, 0.5, 1.0, rng);
  EXPECT_THROW(quality_curve(pop, 11, 10, Aggregator::kMean, rng), Error);
  EXPECT_THROW(quality_curve(pop, 0, 10, Aggregator::kMean, rng), Error);
  EXPECT_THROW(quality_curve(pop, 5, 0, Aggregator::kMean, rng), Error);
  EXPECT_THROW(quality_curve({}, 1, 1, Aggregator::kMean, rng), Error);
}

TEST(QualityModel, RmseToQualityNormalizes) {
  const auto q = rmse_to_quality({2.0, 1.0, 0.5, 0.4});
  ASSERT_EQ(q.size(), 4u);
  EXPECT_DOUBLE_EQ(q[0], 0.0);
  EXPECT_DOUBLE_EQ(q[1], 0.5);
  EXPECT_DOUBLE_EQ(q[2], 0.75);
  EXPECT_DOUBLE_EQ(q[3], 0.8);
  EXPECT_THROW(rmse_to_quality({}), Error);
  EXPECT_THROW(rmse_to_quality({0.0, 1.0}), Error);
}

TEST(QualityModel, FitRecoversKnownDelta) {
  // Generate Q(x) = 1 - (1-0.3)^x exactly; the fit must recover 0.3.
  std::vector<double> q;
  for (int x = 1; x <= 15; ++x) q.push_back(1.0 - std::pow(0.7, x));
  EXPECT_NEAR(fit_quality_delta(q), 0.3, 0.002);
}

TEST(QualityModel, EndToEndDeltaIsPlausible) {
  // The paper's steered baseline uses delta = 0.2; a simulated sensor
  // population should produce a diminishing-returns curve whose fitted
  // delta is in the same regime (order 0.1-0.5), closing the loop between
  // the sensing substrate and the steered mechanism's quality model.
  Rng rng(5);
  const auto pop = draw_sensor_population(200, 1.0, 0.5, 2.0, rng);
  const auto rmse = quality_curve(pop, 20, 300, Aggregator::kMean, rng);
  const double delta = fit_quality_delta(rmse_to_quality(rmse));
  EXPECT_GT(delta, 0.05);
  EXPECT_LT(delta, 0.6);
}

}  // namespace
}  // namespace mcs::sim
