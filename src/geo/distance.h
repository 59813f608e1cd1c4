// Distance between 2-D points.
//
// The paper's cost model is proportional to straight-line traveled distance.
#pragma once

#include "geo/point.h"

namespace mcs::geo {

double euclidean(Point a, Point b);
double squared_euclidean(Point a, Point b);

}  // namespace mcs::geo
