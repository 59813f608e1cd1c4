// Sensing and aggregation substrate (§III-A of the paper).
//
// The platform needs multiple *independent* measurements per task because a
// single user's reading is biased and noisy; it aggregates what it receives
// into an estimate. This module models exactly that: a ground truth per
// task, a per-user sensor (bias + noise), and robust aggregators. It backs
// the quality-vs-measurements experiment that motivates phi = 20 and the
// steered baseline's diminishing-returns quality curve Q(x).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace mcs::sim {

/// A user's sensing characteristics: reading = truth + bias + N(0, noise).
/// Bias is fixed per user (cheap phone, bad calibration); noise is fresh
/// per measurement.
struct SensorProfile {
  double bias = 0.0;
  double noise_stddev = 1.0;
};

/// Draw a population of sensor profiles: biases N(0, bias_stddev), noise
/// levels uniform in [noise_min, noise_max].
std::vector<SensorProfile> draw_sensor_population(std::size_t num_users,
                                                  double bias_stddev,
                                                  double noise_min,
                                                  double noise_max, Rng& rng);

/// One reading of `truth` by `sensor`.
double sense(double truth, const SensorProfile& sensor, Rng& rng);

enum class Aggregator { kMean, kMedian, kTrimmedMean };

const char* aggregator_name(Aggregator a);

/// Aggregate readings into one estimate. kTrimmedMean drops the top and
/// bottom 20% (at least one value survives). Throws on empty input.
double aggregate(const std::vector<double>& readings, Aggregator how);

/// Monte-Carlo estimate of the RMSE of the aggregate as a function of the
/// number of contributing users: for each trial, draw x distinct sensors
/// from the population, one reading each, aggregate, and compare to truth.
/// Returns rmse[x-1] for x in 1..max_measurements.
std::vector<double> quality_curve(const std::vector<SensorProfile>& population,
                                  int max_measurements, int trials,
                                  Aggregator how, Rng& rng);

/// Fit the diminishing-returns quality model Q(x) = 1 - (1-delta)^x (the
/// steered baseline's curve) to a quality series q[x-1] in [0,1], by least
/// squares over delta on a grid. Returns the best delta in (0,1).
double fit_quality_delta(const std::vector<double>& quality);

/// Turn an RMSE curve into a normalized quality series in [0,1]:
/// q(x) = 1 - rmse(x)/rmse(1). Monotone when aggregation helps.
std::vector<double> rmse_to_quality(const std::vector<double>& rmse);

}  // namespace mcs::sim
