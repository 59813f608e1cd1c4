#include "ahp/weights.h"

#include <cmath>
#include <numeric>

#include "common/error.h"

namespace mcs::ahp {

namespace {
void normalize_sum(std::vector<double>& v) {
  const double s = std::accumulate(v.begin(), v.end(), 0.0);
  MCS_CHECK(s > 0.0, "weight vector sums to zero");
  for (double& x : v) x /= s;
}
}  // namespace

const char* weight_method_name(WeightMethod method) {
  switch (method) {
    case WeightMethod::kRowAverage: return "row-average";
    case WeightMethod::kGeometricMean: return "geometric-mean";
    case WeightMethod::kEigenvector: return "eigenvector";
  }
  return "?";
}

std::vector<double> row_average_weights(const ComparisonMatrix& m) {
  const auto norm = m.normalized();
  const std::size_t n = m.size();
  std::vector<double> w(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) w[i] += norm[i][j];
    w[i] /= static_cast<double>(n);
  }
  // Row averages of a column-normalized matrix already sum to 1; normalize
  // anyway to wash out floating-point drift.
  normalize_sum(w);
  return w;
}

std::vector<double> geometric_mean_weights(const ComparisonMatrix& m) {
  const std::size_t n = m.size();
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    double log_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) log_sum += std::log(m.at(i, j));
    w[i] = std::exp(log_sum / static_cast<double>(n));
  }
  normalize_sum(w);
  return w;
}

EigenResult eigenvector_weights(const ComparisonMatrix& m, double tol,
                                int max_iterations) {
  const std::size_t n = m.size();
  EigenResult result;
  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  for (int it = 1; it <= max_iterations; ++it) {
    std::vector<double> next = m.multiply(w);
    normalize_sum(next);
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) delta += std::abs(next[i] - w[i]);
    w = std::move(next);
    result.iterations = it;
    if (delta < tol) {
      result.converged = true;
      break;
    }
  }
  result.lambda_max = estimate_lambda_max(m, w);
  result.weights = std::move(w);
  return result;
}

std::vector<double> compute_weights(const ComparisonMatrix& m,
                                    WeightMethod method) {
  switch (method) {
    case WeightMethod::kRowAverage: return row_average_weights(m);
    case WeightMethod::kGeometricMean: return geometric_mean_weights(m);
    case WeightMethod::kEigenvector: return eigenvector_weights(m).weights;
  }
  throw Error("unknown AHP weight method");
}

double estimate_lambda_max(const ComparisonMatrix& m,
                           const std::vector<double>& weights) {
  const auto aw = m.multiply(weights);
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    MCS_CHECK(weights[i] > 0.0, "weights must be positive");
    sum += aw[i] / weights[i];
    ++used;
  }
  return sum / static_cast<double>(used);
}

}  // namespace mcs::ahp
