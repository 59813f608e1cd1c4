#include "ahp/comparison_matrix.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace mcs::ahp {

ComparisonMatrix::ComparisonMatrix(std::size_t n) : n_(n), a_(n * n, 1.0) {
  MCS_CHECK(n >= 1, "comparison matrix must have at least one criterion");
}

ComparisonMatrix ComparisonMatrix::from_upper_triangle(
    std::size_t n, const std::vector<double>& upper) {
  MCS_CHECK(upper.size() == n * (n - 1) / 2,
            "upper triangle size must be n(n-1)/2");
  ComparisonMatrix m(n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, upper[k++]);
    }
  }
  return m;
}

double ComparisonMatrix::at(std::size_t i, std::size_t j) const {
  MCS_CHECK(i < n_ && j < n_, "comparison matrix index out of range");
  return cell(i, j);
}

void ComparisonMatrix::set(std::size_t i, std::size_t j, double v) {
  MCS_CHECK(i < n_ && j < n_, "comparison matrix index out of range");
  MCS_CHECK(v > 0.0, "comparison matrix entries must be positive");
  if (i == j) {
    MCS_CHECK(std::abs(v - 1.0) < 1e-12, "diagonal entries must equal 1");
    return;
  }
  cell(i, j) = v;
  cell(j, i) = 1.0 / v;
}

std::vector<std::vector<double>> ComparisonMatrix::normalized() const {
  std::vector<double> colsum(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t i = 0; i < n_; ++i) colsum[j] += cell(i, j);
  }
  std::vector<std::vector<double>> out(n_, std::vector<double>(n_));
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) out[i][j] = cell(i, j) / colsum[j];
  }
  return out;
}

std::vector<double> ComparisonMatrix::multiply(
    const std::vector<double>& w) const {
  MCS_CHECK(w.size() == n_, "matrix-vector size mismatch");
  std::vector<double> out(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) out[i] += cell(i, j) * w[j];
  }
  return out;
}

std::string ComparisonMatrix::to_string(int decimals) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (j) os << "  ";
      os << format_fixed(cell(i, j), decimals);
    }
    os << '\n';
  }
  return os.str();
}

ComparisonMatrix consistent_matrix_from_weights(const std::vector<double>& w) {
  const std::size_t n = w.size();
  MCS_CHECK(n >= 1, "weights must be non-empty");
  ComparisonMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    MCS_CHECK(w[i] > 0.0, "weights must be positive");
    for (std::size_t j = i + 1; j < n; ++j) m.set(i, j, w[i] / w[j]);
  }
  return m;
}

}  // namespace mcs::ahp
