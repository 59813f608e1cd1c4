// The incremental reprice() contract (mechanism.h): after reprice() the
// mechanism's rewards must be bit-identical to a full update_rewards()
// against the same world. These unit tests drive the on-demand and steered
// dirty paths directly — measurement deltas, user moves picked up through
// the neighbor-count diff, and the Nmax-change full-recompute fallback —
// against a freshly built mechanism as the oracle.
#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/reward.h"
#include "incentive/steered_mechanism.h"
#include "model/world.h"

namespace mcs::incentive {
namespace {

// Three tasks 600 m apart with radius 500: each user is a neighbor of at
// most one task, so counts (and Nmax) are easy to steer by hand.
model::World make_world() {
  model::World w(geo::BoundingBox::square(3000.0), geo::TravelModel{}, 500.0);
  w.add_task({300.0, 300.0}, /*deadline=*/8, /*required=*/4);
  w.add_task({900.0, 300.0}, 8, 4);
  w.add_task({1500.0, 300.0}, 8, 4);
  w.add_user({300.0, 320.0}, 600.0);   // neighbor of task 0
  w.add_user({300.0, 280.0}, 600.0);   // neighbor of task 0
  w.add_user({900.0, 320.0}, 600.0);   // neighbor of task 1
  return w;
}

OnDemandMechanism make_on_demand() {
  const RewardRule rule = RewardRule::from_budget(1000.0, 12, 0.5, 5);
  return OnDemandMechanism(DemandIndicator::with_paper_defaults(),
                           DemandLevelScale(5), rule);
}

void expect_matches_full(const OnDemandMechanism& m, const model::World& w,
                         Round k) {
  OnDemandMechanism oracle = make_on_demand();
  oracle.update_rewards(w, k);
  EXPECT_EQ(m.rewards(), oracle.rewards());
  EXPECT_EQ(m.last_normalized_demands(), oracle.last_normalized_demands());
  EXPECT_EQ(m.last_levels(), oracle.last_levels());
}

TEST(OnDemandReprice, DirtyMeasurementDeltaMatchesFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // Task 1 gains a measurement (X2 drops): reprice with just that position.
  w.tasks()[1].add_measurement(UserId{2}, 1, 1.0);
  m.reprice(w, 1, {1});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, CompletionZeroesRewardThroughDirtyPath) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  for (int i = 0; i < 4; ++i) {
    w.tasks()[0].add_measurement(static_cast<UserId>(10 + i), 1, 1.0);
  }
  ASSERT_TRUE(w.tasks()[0].completed());
  m.reprice(w, 1, {0});
  EXPECT_EQ(m.rewards()[0], 0.0);
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, UserMovePickedUpViaNeighborCountDiff) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // User 2 walks from task 1's disc to task 2's: counts go {2,1,0} ->
  // {2,0,1} while Nmax stays 2. No dirty tasks at all — the diff against
  // the cached per-task counts must reprice tasks 1 and 2 on its own.
  w.users()[2].set_location({1500.0, 320.0});
  m.reprice(w, 1, {});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, NmaxChangeFallsBackToFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // User 2 joins task 0's disc: counts {2,1,0} -> {3,0,0}, Nmax 2 -> 3.
  // Every task's X3 denominator changes; reprice must recompute all of
  // them, dirty set or not.
  w.users()[2].set_location({300.0, 300.0});
  m.reprice(w, 1, {});
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, RoundChangeFallsBackToFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);
  // A new round moves X1 for every task; reprice(k=2) may not reuse the
  // round-1 pricing.
  m.reprice(w, 2, {});
  expect_matches_full(m, w, 2);
}

TEST(OnDemandReprice, RepriceBeforeAnyPublishIsAFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.reprice(w, 1, {});
  expect_matches_full(m, w, 1);
}

// The O(dirty) contract: the fast path must reprice exactly the dirty set
// plus the journaled count changes — never the whole task set — and the
// fallbacks must report full-width work. last_reprice_touched() pins it.
TEST(OnDemandReprice, FastPathTouchesOnlyDirtyAndJournaledPositions) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // Nothing changed: the fast path does zero repricing work.
  m.reprice(w, 1, {});
  EXPECT_EQ(m.last_reprice_touched(), 0u);

  // User 2 walks from task 1's disc to task 2's (Nmax stays 2) and task 0
  // gains a measurement: exactly positions {0} ∪ {1, 2} are repriced.
  w.users()[2].set_location({1500.0, 320.0});
  w.tasks()[0].add_measurement(UserId{7}, 1, 1.0);
  m.reprice(w, 1, {0});
  EXPECT_EQ(m.last_reprice_touched(), 3u);
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, NmaxFallbackReportsFullWidthWork) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // User 2 joins task 0's disc: Nmax 2 -> 3, full recompute.
  w.users()[2].set_location({300.0, 300.0});
  m.reprice(w, 1, {});
  EXPECT_EQ(m.last_reprice_touched(), w.num_tasks());
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, CacheRebuildFallsBackToFullRecompute) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // Growing the population rebuilds the neighbor cache: there is no
  // per-position delta to replay, so reprice must recompute in full (the
  // new user lands in task 2's empty disc, so Nmax alone would not
  // catch it).
  w.add_user({1500.0, 320.0}, 600.0);
  m.reprice(w, 1, {});
  EXPECT_EQ(m.last_reprice_touched(), w.num_tasks());
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, ConsecutiveFastPathsEachConsumeTheirOwnDelta) {
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  // Two fast-path reprices in a row, each after one move that keeps
  // Nmax at 2: each must see only its own journal slice.
  w.users()[2].set_location({1500.0, 320.0});  // task 1 -> task 2
  m.reprice(w, 1, {});
  EXPECT_EQ(m.last_reprice_touched(), 2u);

  w.users()[2].set_location({900.0, 320.0});  // back: task 2 -> task 1
  m.reprice(w, 1, {});
  EXPECT_EQ(m.last_reprice_touched(), 2u);
  expect_matches_full(m, w, 1);
}

TEST(OnDemandReprice, RoundStartRecountKeepsTheDirtyPath) {
  // A round-start recount (every user moved, as after a round of tours)
  // marks the journal rebuilt. The round-start publish consumes that, so
  // the next session's reprice stays O(dirty) instead of repricing every
  // task.
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);

  w.users()[0].set_location({300.0, 330.0});  // all stay in their discs
  w.users()[1].set_location({300.0, 270.0});
  w.users()[2].set_location({900.0, 330.0});
  ThreadPool pool(2);
  w.refresh_neighbor_cache(&pool, 2);  // 2 * 3 movers * 2 > 3: recount
  m.update_rewards(w, 2);

  w.tasks()[1].add_measurement(UserId{2}, 2, 1.0);
  m.reprice(w, 2, {1});
  EXPECT_EQ(m.last_reprice_touched(), 1u);
  expect_matches_full(m, w, 2);
}

TEST(OnDemandReprice, ShardedUpdateMatchesSerialBitForBit) {
  // The fused demand/level/reward sweep fans over the reprice pool in
  // disjoint row ranges; every published double must match the serial
  // sweep exactly, at any worker count (including workers > tasks).
  model::World w = make_world();
  OnDemandMechanism serial = make_on_demand();
  serial.update_rewards(w, 1);
  for (const int workers : {2, 8}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    OnDemandMechanism m = make_on_demand();
    m.set_reprice_workers(&pool, workers);
    m.update_rewards(w, 1);
    EXPECT_EQ(m.rewards(), serial.rewards());
    EXPECT_EQ(m.last_normalized_demands(), serial.last_normalized_demands());
    EXPECT_EQ(m.last_levels(), serial.last_levels());
  }
}

TEST(OnDemandReprice, SparseTaskIdsPriceByPosition) {
  // Worlds assembled through the mutable tasks() accessor may carry
  // arbitrary (non-dense) ids. The mechanism's whole pipeline — publish,
  // dirty reprice, journal replay — is position-indexed, so sparse ids must
  // price exactly like the dense world with the same geometry.
  model::World w(geo::BoundingBox::square(3000.0), geo::TravelModel{}, 500.0);
  w.tasks().emplace_back(TaskId{40}, geo::Point{300.0, 300.0}, Round{8}, 4);
  w.tasks().emplace_back(TaskId{17}, geo::Point{900.0, 300.0}, Round{8}, 4);
  w.tasks().emplace_back(TaskId{93}, geo::Point{1500.0, 300.0}, Round{8}, 4);
  w.add_user({300.0, 320.0}, 600.0);
  w.add_user({300.0, 280.0}, 600.0);
  w.add_user({900.0, 320.0}, 600.0);

  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);
  expect_matches_full(m, w, 1);

  model::World dense = make_world();  // same geometry, ids 0..2
  OnDemandMechanism dense_m = make_on_demand();
  dense_m.update_rewards(dense, 1);
  EXPECT_EQ(m.rewards(), dense_m.rewards());

  // The row snapshot is published (built-in mechanisms are row-indexed),
  // and reward-by-id would reject these out-of-range ids — the snapshot is
  // what lets the simulator's bulk phases price sparse worlds at all.
  ASSERT_NE(m.reward_rows(), nullptr);
  EXPECT_EQ(*m.reward_rows(), m.rewards());

  // Dirty reprice stays position-indexed too.
  w.tasks()[1].add_measurement(UserId{5}, 1, 1.0);
  m.reprice(w, 1, {1});
  expect_matches_full(m, w, 1);
}

TEST(SteeredReprice, DirtyMeasurementDeltaMatchesFullRecompute) {
  model::World w = make_world();
  SteeredMechanism m(0.5, 10.0, 0.2);
  m.update_rewards(w, 1);

  w.tasks()[2].add_measurement(UserId{5}, 1, 1.0);
  w.tasks()[2].add_measurement(UserId{6}, 1, 1.0);
  m.reprice(w, 1, {2});

  SteeredMechanism oracle(0.5, 10.0, 0.2);
  oracle.update_rewards(w, 1);
  EXPECT_EQ(m.rewards(), oracle.rewards());
}

TEST(SteeredReprice, EmptyDirtySetIsANoOp) {
  model::World w = make_world();
  SteeredMechanism m(0.5, 10.0, 0.2);
  m.update_rewards(w, 1);
  const std::vector<Money> before = m.rewards();
  m.reprice(w, 1, {});
  EXPECT_EQ(m.rewards(), before);
}

}  // namespace
}  // namespace mcs::incentive
