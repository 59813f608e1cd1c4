// The travel model.
//
// A user performing a set of location-dependent tasks walks a simple path
// from its start location through the task locations; the paper charges time
// (against the per-round budget) and money (cost-per-meter) proportional to
// the traveled distance.
#pragma once

#include "common/types.h"

namespace mcs::geo {

/// Travel model: constant walking speed and per-meter monetary cost, as in
/// the paper's evaluation (2 m/s and 0.002 $/m).
struct TravelModel {
  double speed_mps = 2.0;          // walking speed
  Money cost_per_meter = 0.002;    // movement cost

  Seconds time_for(Meters d) const { return d / speed_mps; }
  Money cost_for(Meters d) const { return d * cost_per_meter; }
  Meters distance_within(Seconds t) const { return t * speed_mps; }
};

}  // namespace mcs::geo
