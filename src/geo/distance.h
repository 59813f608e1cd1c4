// Distance between 2-D points.
//
// The paper's cost model is proportional to straight-line traveled distance.
// Inline: both run in the innermost loops of the grid queries, the gather
// and the tour walk.
#pragma once

#include "geo/point.h"

namespace mcs::geo {

inline double euclidean(Point a, Point b) { return norm(a - b); }

inline double squared_euclidean(Point a, Point b) {
  const Point d = a - b;
  return dot(d, d);
}

}  // namespace mcs::geo
