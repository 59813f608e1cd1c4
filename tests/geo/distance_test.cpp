#include "geo/distance.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mcs::geo {
namespace {

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(euclidean({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(euclidean({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(squared_euclidean({0, 0}, {3, 4}), 25.0);
}

TEST(Distance, MetricProperties) {
  // Symmetry + triangle inequality on random triples.
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Point b{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Point c{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    EXPECT_DOUBLE_EQ(euclidean(a, b), euclidean(b, a));
    EXPECT_LE(euclidean(a, c), euclidean(a, b) + euclidean(b, c) + 1e-9);
    EXPECT_GE(euclidean(a, b), 0.0);
  }
}

}  // namespace
}  // namespace mcs::geo
