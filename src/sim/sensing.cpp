#include "sim/sensing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace mcs::sim {

std::vector<SensorProfile> draw_sensor_population(std::size_t num_users,
                                                  double bias_stddev,
                                                  double noise_min,
                                                  double noise_max, Rng& rng) {
  MCS_CHECK(bias_stddev >= 0.0, "bias stddev must be non-negative");
  MCS_CHECK(noise_min >= 0.0 && noise_max >= noise_min, "bad noise range");
  std::vector<SensorProfile> out;
  out.reserve(num_users);
  for (std::size_t i = 0; i < num_users; ++i) {
    out.push_back(
        {rng.normal(0.0, bias_stddev), rng.uniform(noise_min, noise_max)});
  }
  return out;
}

double sense(double truth, const SensorProfile& sensor, Rng& rng) {
  return truth + sensor.bias + rng.normal(0.0, sensor.noise_stddev);
}

const char* aggregator_name(Aggregator a) {
  switch (a) {
    case Aggregator::kMean: return "mean";
    case Aggregator::kMedian: return "median";
    case Aggregator::kTrimmedMean: return "trimmed-mean";
  }
  return "?";
}

double aggregate(const std::vector<double>& readings, Aggregator how) {
  MCS_CHECK(!readings.empty(), "aggregate of no readings");
  switch (how) {
    case Aggregator::kMean:
      return std::accumulate(readings.begin(), readings.end(), 0.0) /
             static_cast<double>(readings.size());
    case Aggregator::kMedian: {
      std::vector<double> sorted(readings);
      std::sort(sorted.begin(), sorted.end());
      const std::size_t n = sorted.size();
      return n % 2 == 1 ? sorted[n / 2]
                        : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    }
    case Aggregator::kTrimmedMean: {
      std::vector<double> sorted(readings);
      std::sort(sorted.begin(), sorted.end());
      const std::size_t n = sorted.size();
      std::size_t trim = n / 5;  // 20% each side
      if (n - 2 * trim < 1) trim = (n - 1) / 2;
      double sum = 0.0;
      for (std::size_t i = trim; i < n - trim; ++i) sum += sorted[i];
      return sum / static_cast<double>(n - 2 * trim);
    }
  }
  throw Error("unknown aggregator");
}

std::vector<double> quality_curve(const std::vector<SensorProfile>& population,
                                  int max_measurements, int trials,
                                  Aggregator how, Rng& rng) {
  MCS_CHECK(!population.empty(), "empty sensor population");
  MCS_CHECK(max_measurements >= 1, "need at least one measurement");
  MCS_CHECK(static_cast<std::size_t>(max_measurements) <= population.size(),
            "cannot draw more distinct sensors than the population holds");
  MCS_CHECK(trials >= 1, "need at least one trial");

  std::vector<double> rmse(static_cast<std::size_t>(max_measurements), 0.0);
  std::vector<std::size_t> idx(population.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});

  for (int x = 1; x <= max_measurements; ++x) {
    double sq_sum = 0.0;
    for (int t = 0; t < trials; ++t) {
      rng.shuffle(idx);
      const double truth = rng.uniform(0.0, 100.0);
      std::vector<double> readings;
      readings.reserve(static_cast<std::size_t>(x));
      for (int i = 0; i < x; ++i) {
        readings.push_back(sense(truth, population[idx[static_cast<std::size_t>(i)]], rng));
      }
      const double err = aggregate(readings, how) - truth;
      sq_sum += err * err;
    }
    rmse[static_cast<std::size_t>(x - 1)] = std::sqrt(sq_sum / trials);
  }
  return rmse;
}

std::vector<double> rmse_to_quality(const std::vector<double>& rmse) {
  MCS_CHECK(!rmse.empty(), "empty rmse curve");
  MCS_CHECK(rmse.front() > 0.0, "rmse(1) must be positive to normalize");
  std::vector<double> q;
  q.reserve(rmse.size());
  for (const double r : rmse) {
    q.push_back(std::clamp(1.0 - r / rmse.front(), 0.0, 1.0));
  }
  return q;
}

double fit_quality_delta(const std::vector<double>& quality) {
  MCS_CHECK(!quality.empty(), "empty quality curve");
  double best_delta = 0.5;
  double best_err = kInf;
  for (int i = 1; i < 1000; ++i) {
    const double delta = static_cast<double>(i) / 1000.0;
    double err = 0.0;
    for (std::size_t x = 0; x < quality.size(); ++x) {
      const double model =
          1.0 - std::pow(1.0 - delta, static_cast<double>(x + 1));
      const double d = model - quality[x];
      err += d * d;
    }
    if (err < best_err) {
      best_err = err;
      best_delta = delta;
    }
  }
  return best_delta;
}

}  // namespace mcs::sim
