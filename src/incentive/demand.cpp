#include "incentive/demand.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mcs::incentive {

double DemandParams::lambda_max() const {
  return std::max({lambda1, lambda2, lambda3});
}

double deadline_factor(Round deadline, Round k, double lambda1) {
  MCS_CHECK(k >= 1, "rounds are 1-based");
  const Round remaining = deadline - (k - 1);  // rounds left incl. this one
  if (remaining <= 0) return 0.0;              // expired: no demand
  return lambda1 * std::log(1.0 + 1.0 / static_cast<double>(remaining));
}

double progress_factor(int received, int required, double lambda2) {
  MCS_CHECK(required > 0, "required measurements must be positive");
  MCS_CHECK(received >= 0, "received measurements must be non-negative");
  const double progress =
      std::min(1.0, static_cast<double>(received) / required);
  return lambda2 * std::log(1.0 + (1.0 - progress));
}

int max_neighbors(const std::vector<int>& neighbor_counts) {
  return neighbor_counts.empty()
             ? 0
             : *std::max_element(neighbor_counts.begin(),
                                 neighbor_counts.end());
}

double neighbor_factor(int neighbors, int max_neighbors, double lambda3) {
  MCS_CHECK(neighbors >= 0, "neighbor count must be non-negative");
  MCS_CHECK(max_neighbors >= neighbors,
            "max neighbor count below a task's count");
  if (max_neighbors == 0) return lambda3 * std::log(2.0);
  const double ratio = static_cast<double>(neighbors) / max_neighbors;
  return lambda3 * std::log(1.0 + (1.0 - ratio));
}

DemandIndicator::DemandIndicator(DemandParams params,
                                 const ahp::ComparisonMatrix& criteria_matrix,
                                 ahp::WeightMethod method)
    : params_(params) {
  MCS_CHECK(params.lambda1 > 0 && params.lambda2 > 0 && params.lambda3 > 0,
            "demand scale coefficients must be positive");
  MCS_CHECK(criteria_matrix.size() == 3,
            "demand indicator uses exactly three criteria");
  weights_ = ahp::compute_weights(criteria_matrix, method);
}

DemandIndicator::DemandIndicator(DemandParams params,
                                 std::vector<double> weights)
    : params_(params), weights_(std::move(weights)) {
  MCS_CHECK(params.lambda1 > 0 && params.lambda2 > 0 && params.lambda3 > 0,
            "demand scale coefficients must be positive");
  MCS_CHECK(weights_.size() == 3, "demand indicator uses exactly three criteria");
  double sum = 0.0;
  for (const double w : weights_) {
    MCS_CHECK(w >= 0.0, "criterion weights must be non-negative");
    sum += w;
  }
  MCS_CHECK(std::abs(sum - 1.0) < 1e-9, "criterion weights must sum to 1");
}

DemandIndicator DemandIndicator::with_paper_defaults(DemandParams params) {
  // Table I: deadline vs progress = 3, deadline vs neighbors = 5,
  // progress vs neighbors = 2.
  const auto m = ahp::ComparisonMatrix::from_upper_triangle(3, {3.0, 5.0, 2.0});
  return DemandIndicator(params, m, ahp::WeightMethod::kRowAverage);
}

double DemandIndicator::demand_from_fields(Round deadline, int required,
                                           int received, Round k,
                                           int neighbors,
                                           int max_neighbors) const {
  if (received >= required || k > deadline) return 0.0;  // completed/expired
  const double x1 = deadline_factor(deadline, k, params_.lambda1);
  const double x2 = progress_factor(received, required, params_.lambda2);
  const double x3 = neighbor_factor(neighbors, max_neighbors, params_.lambda3);
  return weights_[0] * x1 + weights_[1] * x2 + weights_[2] * x3;
}

double DemandIndicator::demand(const model::Task& task, Round k, int neighbors,
                               int max_neighbors) const {
  return demand_from_fields(task.deadline(), task.required(), task.received(),
                            k, neighbors, max_neighbors);
}

std::vector<double> DemandIndicator::demands(const model::World& world,
                                             Round k) const {
  return demands(world, k, world.neighbor_counts());
}

std::vector<double> DemandIndicator::demands(
    const model::World& world, Round k,
    const std::vector<int>& neighbor_counts) const {
  // neighbor_counts is one entry per task *position*; index by position
  // (task ids need not be dense or equal to their vector index). One sweep
  // over the store columns: deadline/required stream as packed lines and
  // only the measurement-vector size is read per task.
  MCS_CHECK(neighbor_counts.size() == world.num_tasks(),
            "one neighbor count per task");
  const int nmax = max_neighbors(neighbor_counts);
  const model::TaskStore& ts = world.task_store();
  std::vector<double> out(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    out[i] = demand_from_fields(ts.deadline[i], ts.required[i],
                                static_cast<int>(ts.measurements[i].size()), k,
                                neighbor_counts[i], nmax);
  }
  return out;
}

double DemandIndicator::normalize(double demand) const {
  const double bound = params_.lambda_max() * std::log(2.0);
  const double d = demand / bound;
  return std::clamp(d, 0.0, 1.0);
}

std::vector<double> DemandIndicator::normalized_demands(
    const model::World& world, Round k) const {
  std::vector<double> out = demands(world, k);
  for (double& d : out) d = normalize(d);
  return out;
}

}  // namespace mcs::incentive
