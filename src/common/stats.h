// Summary statistics used by the experiment harness:
// streaming mean/variance (Welford), quantiles, five-number box-plot
// summaries, and simple fixed-bin histograms.
#pragma once

#include <cstddef>
#include <vector>

namespace mcs {

/// Numerically stable streaming accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Population variance (divide by n); the paper's "variance of
  /// measurements" is a population statistic over the fixed task set.
  double variance() const;
  /// Sample variance (divide by n-1).
  double sample_variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile with linear interpolation between order statistics
/// (the "type 7" estimator used by R and NumPy). q in [0,1].
double quantile(std::vector<double> values, double q);

/// Same estimator over values the caller has already sorted ascending — no
/// copy, no re-sort. Callers that need several quantiles of one sample
/// (boxplot_summary) sort once and use this.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Five-number summary for box plots, plus 1.5·IQR whiskers and outliers,
/// matching what Fig. 5(b) of the paper displays.
struct BoxplotSummary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double whisker_low = 0.0;   // smallest value >= q1 - 1.5*IQR
  double whisker_high = 0.0;  // largest value <= q3 + 1.5*IQR
  std::size_t n = 0;
  std::size_t n_outliers = 0;
};

BoxplotSummary boxplot_summary(const std::vector<double>& values);

/// Population variance of a vector (divide by n). Returns 0 for n < 1.
double population_variance(const std::vector<double>& values);

/// Arithmetic mean; returns 0 for an empty vector.
double mean_of(const std::vector<double>& values);

}  // namespace mcs
