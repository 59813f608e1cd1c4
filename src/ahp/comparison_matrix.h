// Pairwise comparison matrices for the Analytic Hierarchy Process (Saaty).
//
// Entry a(i,j) states how much more important criterion i is than criterion
// j on Saaty's 1..9 scale; the matrix is positive and reciprocal
// (a(j,i) = 1/a(i,j), a(i,i) = 1). Table I of the paper is one such matrix.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mcs::ahp {

class ComparisonMatrix {
 public:
  /// Identity-consistent n x n matrix (all entries 1).
  explicit ComparisonMatrix(std::size_t n);

  /// Build from the strict upper triangle in row-major order
  /// (a12, a13, ..., a1n, a23, ...). The lower triangle is filled with
  /// reciprocals and the diagonal with 1. For n=3 this is {a12, a13, a23};
  /// Table I of the paper is {3, 5, 2}.
  static ComparisonMatrix from_upper_triangle(std::size_t n,
                                              const std::vector<double>& upper);

  std::size_t size() const { return n_; }
  double at(std::size_t i, std::size_t j) const;

  /// Set a(i,j) = v (and a(j,i) = 1/v). v must be positive; setting a
  /// diagonal entry to anything but 1 is an error.
  void set(std::size_t i, std::size_t j, double v);

  /// Column-normalized matrix (each entry divided by its column sum) —
  /// Table II of the paper.
  std::vector<std::vector<double>> normalized() const;

  /// Matrix-vector product A*w.
  std::vector<double> multiply(const std::vector<double>& w) const;

  std::string to_string(int decimals = 3) const;

 private:
  std::size_t n_;
  std::vector<double> a_;  // row-major n*n

  double& cell(std::size_t i, std::size_t j) { return a_[i * n_ + j]; }
  const double& cell(std::size_t i, std::size_t j) const {
    return a_[i * n_ + j];
  }
};

/// A consistent matrix built from a priority vector: a(i,j) = w_i / w_j.
/// Useful for testing (its principal eigenvector is exactly w).
ComparisonMatrix consistent_matrix_from_weights(const std::vector<double>& w);

}  // namespace mcs::ahp
