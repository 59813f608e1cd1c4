// World::neighbor_counts() is backed by a persistent spatial grid with
// lazy delta sync; counts must stay *exactly* equal to the brute-force
// O(U*T) scan through any sequence of user moves, population growth and
// task additions (integer counts, shared distance predicate — no epsilon).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "geo/distance.h"
#include "model/world.h"

namespace mcs::model {
namespace {

std::vector<int> brute_force_counts(const World& w) {
  std::vector<int> counts(w.num_tasks(), 0);
  const double r2 = w.neighbor_radius() * w.neighbor_radius();
  for (std::size_t i = 0; i < w.num_tasks(); ++i) {
    for (const User& u : w.users()) {
      if (geo::squared_euclidean(w.tasks()[i].location(), u.location()) <=
          r2) {
        ++counts[i];
      }
    }
  }
  return counts;
}

geo::Point random_point(Rng& rng, double side) {
  return {rng.uniform(0.0, side), rng.uniform(0.0, side)};
}

TEST(NeighborCache, DeltaSyncMatchesBruteForceAcrossRandomMoves) {
  const double side = 2000.0;
  World w(geo::BoundingBox::square(side), geo::TravelModel{}, 300.0);
  Rng rng(2024);
  for (int i = 0; i < 25; ++i) w.add_task(random_point(rng, side), 10, 5);
  for (int i = 0; i < 60; ++i) w.add_user(random_point(rng, side), 600.0);

  ASSERT_EQ(w.neighbor_counts(), brute_force_counts(w));

  for (int iter = 0; iter < 30; ++iter) {
    // Move a random subset (sometimes nobody, exercising the no-op sync).
    const int moves = static_cast<int>(rng.uniform_int(0, 10));
    for (int m = 0; m < moves; ++m) {
      const auto who = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(w.num_users()) - 1));
      w.users()[who].set_location(random_point(rng, side));
    }
    EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w)) << "iter " << iter;
  }
}

TEST(NeighborCache, MovesOntoExactRadiusBoundary) {
  // The predicate is <= r: a user sitting exactly on the circle counts.
  // The delta path must agree with the rebuild on that boundary.
  World w(geo::BoundingBox::square(1000.0), geo::TravelModel{}, 100.0);
  w.add_task({500.0, 500.0}, 10, 5);
  w.add_user({0.0, 0.0}, 600.0);
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{0});
  w.users()[0].set_location({600.0, 500.0});  // exactly 100 m away
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{1});
  w.users()[0].set_location({600.001, 500.0});
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{0});
}

TEST(NeighborCache, PopulationAndTaskGrowthForceRebuild) {
  const double side = 1500.0;
  World w(geo::BoundingBox::square(side), geo::TravelModel{}, 250.0);
  Rng rng(7);
  for (int i = 0; i < 8; ++i) w.add_task(random_point(rng, side), 10, 5);
  for (int i = 0; i < 20; ++i) w.add_user(random_point(rng, side), 600.0);
  EXPECT_EQ(w.neighbor_recounts(), 0u);
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
  EXPECT_EQ(w.neighbor_recounts(), 1u);

  // New user after the cache is warm: sizes diverge, cache must rebuild.
  w.add_user({10.0, 10.0}, 600.0);
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
  EXPECT_EQ(w.neighbor_recounts(), 2u);

  // New task after the cache is warm: likewise.
  w.add_task({700.0, 700.0}, 10, 5);
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
  EXPECT_EQ(w.neighbor_recounts(), 3u);

  // And moves keep delta-syncing correctly after the rebuilds.
  w.users()[3].set_location({705.0, 705.0});
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
  EXPECT_EQ(w.neighbor_recounts(), 3u);
}

TEST(NeighborCache, ZeroRadiusAndCoincidentPoints) {
  World w(geo::BoundingBox::square(100.0), geo::TravelModel{}, 0.0);
  w.add_task({50.0, 50.0}, 10, 5);
  w.add_user({50.0, 50.0}, 600.0);  // distance 0 <= 0: counts
  w.add_user({50.0, 51.0}, 600.0);
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{1});
  w.users()[1].set_location({50.0, 50.0});
  EXPECT_EQ(w.neighbor_counts(), std::vector<int>{2});
}

World random_world(std::uint64_t seed, int tasks, int users) {
  const double side = 2000.0;
  World w(geo::BoundingBox::square(side), geo::TravelModel{}, 300.0);
  Rng rng(seed);
  for (int i = 0; i < tasks; ++i) w.add_task(random_point(rng, side), 10, 5);
  for (int i = 0; i < users; ++i) w.add_user(random_point(rng, side), 600.0);
  return w;
}

// The round-start policy: refresh_neighbor_cache() recounts when
// 2 * moved * workers > U and delta-syncs otherwise. Either way the counts
// must equal brute force and a twin world that only ever delta-syncs;
// neighbor_recounts() advances exactly when a recount ran.
TEST(NeighborCache, RefreshPolicyMatchesDeltaSyncTwinAndBruteForce) {
  const int users = 97;  // odd, so U / (2w) is never a whole number
  for (const int workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    ThreadPool* pool_arg = workers > 1 ? &pool : nullptr;
    const std::size_t under =
        static_cast<std::size_t>(users / (2 * workers));
    for (const std::size_t movers :
         {std::size_t{0}, std::size_t{1}, under, under + 1,
          static_cast<std::size_t>(users)}) {
      SCOPED_TRACE(::testing::Message()
                   << "workers " << workers << ", movers " << movers);
      World w = random_world(100 + movers * 7 + static_cast<std::size_t>(workers),
                             40, users);
      (void)w.neighbor_counts();  // build the cache
      World twin = w;
      const std::uint64_t recounts_before = w.neighbor_recounts();
      const std::uint64_t twin_before = twin.neighbor_recounts();

      Rng rng(movers + 1);
      std::vector<std::size_t> order(static_cast<std::size_t>(users));
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      for (std::size_t m = 0; m < movers; ++m) {
        const geo::Point p = random_point(rng, 2000.0);
        w.users()[order[m]].set_location(p);
        twin.users()[order[m]].set_location(p);
      }

      w.refresh_neighbor_cache(pool_arg, workers);
      const std::vector<int> brute = brute_force_counts(w);
      EXPECT_EQ(w.neighbor_counts(), brute);
      EXPECT_EQ(twin.neighbor_counts(), brute);

      const bool recount =
          2 * movers * static_cast<std::size_t>(workers) >
          static_cast<std::size_t>(users);
      EXPECT_EQ(recount, movers == under + 1 ||
                             movers == static_cast<std::size_t>(users));
      EXPECT_EQ(w.neighbor_recounts() - recounts_before, recount ? 1u : 0u);
      EXPECT_EQ(twin.neighbor_recounts(), twin_before);

      // Later one-mover syncs keep the counts exact after a recount.
      for (int step = 0; step < 10; ++step) {
        const auto who = static_cast<std::size_t>(
            rng.uniform_int(0, users - 1));
        w.users()[who].set_location(random_point(rng, 2000.0));
        EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
      }
    }
  }
}

TEST(NeighborCache, RefreshRebuildsAnUnusableCacheAtAnyWorkerCount) {
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    World w = random_world(5, 30, 80);
    w.refresh_neighbor_cache(&pool, workers);  // first use: full rebuild
    EXPECT_EQ(w.neighbor_recounts(), 1u);
    EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));

    w.add_user({1000.0, 1000.0}, 600.0);  // population change
    w.refresh_neighbor_cache(&pool, workers);
    EXPECT_EQ(w.neighbor_recounts(), 2u);
    EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
    EXPECT_EQ(w.neighbor_recounts(), 2u);
  }
}

TEST(NeighborCache, LazyReadsNeverRecount) {
  // Every user moves, but the lazy path still replays the moves: only
  // refresh_neighbor_cache() may recount a usable cache.
  World w = random_world(9, 30, 60);
  (void)w.neighbor_counts();
  ASSERT_EQ(w.neighbor_recounts(), 1u);
  Rng rng(3);
  for (User& u : w.users()) u.set_location(random_point(rng, 2000.0));
  EXPECT_EQ(w.neighbor_counts(), brute_force_counts(w));
  EXPECT_EQ(w.neighbor_recounts(), 1u);
}

}  // namespace
}  // namespace mcs::model
