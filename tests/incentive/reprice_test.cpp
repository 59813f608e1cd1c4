// The reprice() contract (mechanism.h): after reprice() the mechanism's
// rewards must be bit-identical to a full update_rewards() against the same
// world. Steered is the only mechanism with an incremental (O(dirty))
// override; its unit tests drive that path against a freshly built
// mechanism as the oracle. On-demand prices once per round through one
// fused sweep, pinned here at any worker count and under sparse task ids.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
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
  // arbitrary (non-dense) ids. The mechanism's sweep is position-indexed,
  // so sparse ids must price exactly like the dense world with the same
  // geometry.
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
}

TEST(OnDemandReprice, CheckpointStateCarriesNoRepriceBookkeeping) {
  // Every update recomputes from the world alone, so new payloads carry
  // only the published snapshot. Older payloads still hold the retired
  // bookkeeping keys; restore ignores them.
  model::World w = make_world();
  OnDemandMechanism m = make_on_demand();
  m.update_rewards(w, 1);
  Json state = m.state_to_json();
  for (const char* key : {"last_max_neighbors", "last_round", "published"}) {
    EXPECT_FALSE(state.has(key)) << key;
  }
  const std::string fresh = state.dump();
  state["last_max_neighbors"] = 2;
  state["last_round"] = 1;
  state["published"] = true;
  OnDemandMechanism back = make_on_demand();
  back.restore_state(state);
  EXPECT_EQ(back.state_to_json().dump(), fresh);
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
