#include "geo/distance.h"

namespace mcs::geo {

double euclidean(Point a, Point b) { return norm(a - b); }

double squared_euclidean(Point a, Point b) {
  const Point d = a - b;
  return dot(d, d);
}

}  // namespace mcs::geo
