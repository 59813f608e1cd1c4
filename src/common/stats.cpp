#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mcs {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  MCS_CHECK(n_ > 0, "min of empty stats");
  return min_;
}

double RunningStats::max() const {
  MCS_CHECK(n_ > 0, "max of empty stats");
  return max_;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  MCS_CHECK(!sorted.empty(), "quantile of empty vector");
  MCS_CHECK(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::vector<double> values, double q) {
  MCS_CHECK(!values.empty(), "quantile of empty vector");
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

BoxplotSummary boxplot_summary(const std::vector<double>& values) {
  MCS_CHECK(!values.empty(), "boxplot of empty vector");
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());

  BoxplotSummary s;
  s.n = sorted.size();
  s.min = sorted.front();
  s.max = sorted.back();
  // The input is already sorted: the sorted-path quantile avoids the three
  // copy + re-sort round trips the by-value overload would make here.
  s.q1 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.5);
  s.q3 = quantile_sorted(sorted, 0.75);
  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  s.whisker_low = s.max;
  s.whisker_high = s.min;
  for (const double v : sorted) {
    if (v >= lo_fence) {
      s.whisker_low = v;
      break;
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= hi_fence) {
      s.whisker_high = *it;
      break;
    }
  }
  for (const double v : sorted) {
    if (v < lo_fence || v > hi_fence) ++s.n_outliers;
  }
  return s;
}

double population_variance(const std::vector<double>& values) {
  RunningStats rs;
  for (const double v : values) rs.add(v);
  return rs.variance();
}

double mean_of(const std::vector<double>& values) {
  RunningStats rs;
  for (const double v : values) rs.add(v);
  return rs.mean();
}

}  // namespace mcs
