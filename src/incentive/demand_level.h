// Quantization of normalized demand into N discrete demand levels
// (Table III of the paper: with N=5, demand (0.2,0.4] -> level 2, etc.).
#pragma once

#include <vector>

namespace mcs::incentive {

class DemandLevelScale {
 public:
  /// `levels` = N >= 1 equal-width buckets over [0, 1].
  explicit DemandLevelScale(int levels);

  int levels() const { return levels_; }

  /// Demand level in 1..N. Bucket edges follow Table III: level 1 is
  /// [0, 1/N]; level L>1 is ((L-1)/N, L/N]. Values are clamped into [0,1].
  int level(double normalized_demand) const;

  /// Inclusive lower edge of a level's bucket (0 for level 1).
  double bucket_low(int level) const;
  /// Inclusive upper edge of a level's bucket.
  double bucket_high(int level) const;

  std::vector<int> levels_for(const std::vector<double>& demands) const;

 private:
  int levels_;
};

}  // namespace mcs::incentive
