#include "geo/point.h"

#include <gtest/gtest.h>

namespace mcs::geo {
namespace {

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Point{2.0, 4.0}));
}

TEST(Point, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm({0, 0}), 0.0);
}

TEST(Point, Equality) {
  EXPECT_TRUE((Point{1, 2}) == (Point{1, 2}));
  EXPECT_TRUE((Point{1, 2}) != (Point{1, 3}));
}

}  // namespace
}  // namespace mcs::geo
