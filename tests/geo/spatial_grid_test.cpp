#include "geo/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "geo/distance.h"

namespace mcs::geo {
namespace {

TEST(FrozenGrid, BuildAndCount) {
  const FrozenGrid g(BoundingBox::square(100.0), 10.0,
                     {{10, 10}, {12, 10}, {90, 90}});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.count_radius({10, 10}, 5.0), 2u);
  EXPECT_EQ(g.count_radius({10, 10}, 0.5), 1u);
  EXPECT_EQ(g.count_radius({50, 50}, 1.0), 0u);
  EXPECT_EQ(g.count_radius({0, 0}, 1000.0), 3u);
}

TEST(FrozenGrid, VisitsPointIndices) {
  const FrozenGrid g(BoundingBox::square(100.0), 10.0,
                     {{50, 50}, {52, 50}, {70, 70}});
  std::vector<std::int32_t> ids;
  g.for_each_in_radius({51, 50}, 2.0,
                       [&ids](std::int32_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::int32_t>{0, 1}));
}

TEST(FrozenGrid, RadiusBoundaryIsInclusive) {
  const FrozenGrid g(BoundingBox::square(100.0), 10.0, {{0, 0}});
  EXPECT_EQ(g.count_radius({3, 4}, 5.0), 1u);  // exactly on the circle
  EXPECT_EQ(g.count_radius({3, 4}, 4.9999), 0u);
}

TEST(FrozenGrid, PointsOutsideBoundsStillQueryable) {
  // Far outside; clamped into a border cell.
  const FrozenGrid g(BoundingBox::square(10.0), 2.0, {{100, 100}});
  EXPECT_EQ(g.count_radius({100, 100}, 1.0), 1u);
  EXPECT_EQ(g.count_radius({5, 5}, 1.0), 0u);
}

TEST(FrozenGrid, EmptyGridHitsNothing) {
  const FrozenGrid unbuilt;
  EXPECT_EQ(unbuilt.size(), 0u);
  EXPECT_EQ(unbuilt.count_radius({5, 5}, 100.0), 0u);
  const FrozenGrid empty(BoundingBox::square(100.0), 10.0, {});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.count_radius({5, 5}, 1000.0), 0u);
  int visits = 0;
  empty.for_each_in_radius({5, 5}, 1000.0, [&visits](std::int32_t) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(FrozenGrid, NegativeRadiusThrows) {
  const FrozenGrid g(BoundingBox::square(10.0), 1.0, {{1, 1}});
  EXPECT_THROW(g.count_radius({0, 0}, -1.0), Error);
}

TEST(FrozenGrid, BadCellSizeThrows) {
  EXPECT_THROW(FrozenGrid(BoundingBox::square(10.0), 0.0, {}), Error);
}

TEST(FrozenGrid, InflatedRadiusNeverUnderCollects) {
  // The simulator's candidate gather queries at reach * (1 + 1e-12) + 1e-9
  // and then keeps exactly the points with euclidean() <= reach. That is
  // only exact if the inflated query visits every such point — including
  // ones placed on the reach circle, where the grid's squared-distance test
  // and the sqrt-based predicate round differently.
  Rng rng(0x6a7e4ULL);
  const BoundingBox area = BoundingBox::square(30000.0);
  std::vector<Point> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back({rng.uniform(0.0, 30000.0), rng.uniform(0.0, 30000.0)});
  }
  const FrozenGrid grid(area, 30000.0 / 64.0, pts);
  std::vector<char> seen(pts.size());
  for (int q = 0; q < 400; ++q) {
    const Point center{rng.uniform(0.0, 30000.0), rng.uniform(0.0, 30000.0)};
    // Half the queries put the reach exactly on some point's distance.
    const double reach =
        q % 2 == 0 ? euclidean(center, pts[static_cast<std::size_t>(
                                           rng.uniform_int(0, 1999))])
                   : rng.uniform(0.0, 3000.0);
    std::fill(seen.begin(), seen.end(), 0);
    grid.for_each_in_radius(center, reach * (1.0 + 1e-12) + 1e-9,
                            [&seen](std::int32_t id) {
                              seen[static_cast<std::size_t>(id)] = 1;
                            });
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (euclidean(center, pts[i]) <= reach) {
        EXPECT_TRUE(seen[i]) << "query " << q << " missed point " << i;
      }
    }
  }
}

// Property sweep: FrozenGrid results must equal brute force for random point
// sets and random queries, across cell sizes from area/64 up to one cell
// covering the whole area (and beyond). The hit set is independent of the
// cell size, which is what lets the round task index size its cells to the
// number of open tasks.
class FrozenGridProperty : public ::testing::TestWithParam<double> {};

TEST_P(FrozenGridProperty, MatchesBruteForce) {
  const double cell = GetParam();
  Rng rng(static_cast<std::uint64_t>(cell * 1000) + 7);
  const BoundingBox area = BoundingBox::square(1000.0);
  std::vector<Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  const FrozenGrid grid(area, cell, pts);
  for (int q = 0; q < 50; ++q) {
    const Point center{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    const double radius = rng.uniform(0.0, 400.0);
    std::vector<std::int32_t> brute;
    for (int i = 0; i < 300; ++i) {
      if (squared_euclidean(center, pts[static_cast<std::size_t>(i)]) <=
          radius * radius) {
        brute.push_back(i);
      }
    }
    std::vector<std::int32_t> hits;
    grid.for_each_in_radius(center, radius,
                            [&hits](std::int32_t id) { hits.push_back(id); });
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, brute);
    EXPECT_EQ(grid.count_radius(center, radius), brute.size());
  }
}

TEST(FrozenGrid, InPlaceRebuildEqualsFreshBuild) {
  // One grid rebuilt in place through a point set that grows, shrinks,
  // empties and refills must answer every query exactly like a grid built
  // fresh over the same points: same size, same ids, same visit order.
  Rng rng(31);
  const BoundingBox area = BoundingBox::square(1000.0);
  const double cell = 80.0;
  const auto visits = [](const FrozenGrid& g, Point center, double radius) {
    std::vector<std::int32_t> ids;
    g.for_each_in_radius(center, radius,
                         [&ids](std::int32_t id) { ids.push_back(id); });
    return ids;
  };
  FrozenGrid reused;
  for (const int n : {50, 400, 12, 0, 0, 150}) {
    SCOPED_TRACE(n);
    std::vector<Point> pts;
    for (int i = 0; i < n; ++i) {
      // Some points fall outside the bounds and clamp into border cells.
      pts.push_back({rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0)});
    }
    reused.rebuild(area, cell, pts);
    const FrozenGrid fresh(area, cell, pts);
    ASSERT_EQ(reused.size(), fresh.size());
    // A query covering the whole area visits every entry in CSR order.
    EXPECT_EQ(visits(reused, {500.0, 500.0}, 2000.0),
              visits(fresh, {500.0, 500.0}, 2000.0));
    for (int q = 0; q < 40; ++q) {
      const Point center{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
      const double radius = rng.uniform(0.0, 300.0);
      EXPECT_EQ(visits(reused, center, radius), visits(fresh, center, radius));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, FrozenGridProperty,
                         ::testing::Values(1000.0 / 64.0, 25.0, 100.0, 500.0,
                                           1000.0, 2000.0));

}  // namespace
}  // namespace mcs::geo
