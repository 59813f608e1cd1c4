#include "incentive/demand_level.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mcs::incentive {

DemandLevelScale::DemandLevelScale(int levels) : levels_(levels) {
  MCS_CHECK(levels >= 1, "demand level count must be at least 1");
}

int DemandLevelScale::level(double normalized_demand) const {
  const double d = std::clamp(normalized_demand, 0.0, 1.0);
  // Buckets are left-open, right-closed except the first: ceil(d*N) with a
  // floor of 1 implements exactly Table III's edges. The epsilon keeps a
  // value sitting exactly on an edge (e.g. 0.29 at N=100, which rounds to
  // 29.000000000000004) in its own bucket instead of the one above.
  const int lvl = static_cast<int>(std::ceil(d * levels_ - 1e-9));
  return std::clamp(lvl, 1, levels_);
}

double DemandLevelScale::bucket_low(int level) const {
  MCS_CHECK(level >= 1 && level <= levels_, "demand level out of range");
  return static_cast<double>(level - 1) / levels_;
}

double DemandLevelScale::bucket_high(int level) const {
  MCS_CHECK(level >= 1 && level <= levels_, "demand level out of range");
  return static_cast<double>(level) / levels_;
}

std::vector<int> DemandLevelScale::levels_for(
    const std::vector<double>& demands) const {
  std::vector<int> out;
  out.reserve(demands.size());
  for (const double d : demands) out.push_back(level(d));
  return out;
}

}  // namespace mcs::incentive
