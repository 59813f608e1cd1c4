// Plain 2-D point/vector in meters (planar deployment area, as in the
// paper's 3000 m x 3000 m experiment field).
#pragma once

#include <cmath>

namespace mcs::geo {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
  friend Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
  friend Point operator*(Point a, double s) { return {a.x * s, a.y * s}; }
  friend Point operator*(double s, Point a) { return a * s; }
  friend bool operator==(Point a, Point b) { return a.x == b.x && a.y == b.y; }
  friend bool operator!=(Point a, Point b) { return !(a == b); }
};

inline double dot(Point a, Point b) { return a.x * b.x + a.y * b.y; }
inline double norm(Point a) { return std::sqrt(dot(a, a)); }

}  // namespace mcs::geo
