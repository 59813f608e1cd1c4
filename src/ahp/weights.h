// Priority (weight) extraction from a pairwise comparison matrix.
//
// Three standard estimators are provided:
//  * row-average of the column-normalized matrix — Eq. 6 of the paper,
//  * geometric mean of rows (logarithmic least squares),
//  * principal right eigenvector via power iteration (Saaty's original).
// For a perfectly consistent matrix all three agree.
#pragma once

#include <vector>

#include "ahp/comparison_matrix.h"

namespace mcs::ahp {

enum class WeightMethod { kRowAverage, kGeometricMean, kEigenvector };

const char* weight_method_name(WeightMethod method);

/// Row averages of the column-normalized matrix (paper Eq. 6). Sums to 1.
std::vector<double> row_average_weights(const ComparisonMatrix& m);

/// Geometric mean of each row, normalized to sum to 1.
std::vector<double> geometric_mean_weights(const ComparisonMatrix& m);

/// Result of the power-iteration eigenvector computation.
struct EigenResult {
  std::vector<double> weights;   // normalized to sum to 1
  double lambda_max = 0.0;       // principal eigenvalue estimate
  int iterations = 0;            // iterations until convergence
  bool converged = false;
};

/// Principal eigenvector via power iteration. For positive reciprocal
/// matrices the principal eigenvalue is real and >= n, so the iteration
/// converges; `tol` bounds the L1 change between iterates.
EigenResult eigenvector_weights(const ComparisonMatrix& m, double tol = 1e-12,
                                int max_iterations = 10000);

/// Dispatch on method.
std::vector<double> compute_weights(const ComparisonMatrix& m,
                                    WeightMethod method);

/// Estimate lambda_max from an arbitrary weight vector as the mean of
/// (A*w)_i / w_i — needed for the consistency index when weights were
/// obtained by a non-eigenvector method.
double estimate_lambda_max(const ComparisonMatrix& m,
                           const std::vector<double>& weights);

}  // namespace mcs::ahp
