#include "select/dp_selector.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "geo/distance.h"

namespace mcs::select {
namespace {

SelectionInstance basic(double budget_s = 600.0) {
  SelectionInstance inst;
  inst.start = {0, 0};
  inst.travel = {};
  inst.time_budget = budget_s;
  return inst;
}

TEST(DpSelector, EmptyInstanceReturnsEmptySelection) {
  const DpSelector dp;
  const Selection s = dp.select(basic());
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.profit(), 0.0);
}

TEST(DpSelector, SingleProfitableTask) {
  auto inst = basic();
  inst.candidates = {{0, {100, 0}, 1.0}};  // cost 0.2, reward 1.0
  const Selection s = DpSelector().select(inst);
  ASSERT_EQ(s.order.size(), 1u);
  EXPECT_EQ(s.order[0], 0);
  EXPECT_DOUBLE_EQ(s.distance, 100.0);
  EXPECT_DOUBLE_EQ(s.profit(), 0.8);
}

TEST(DpSelector, SkipsUnprofitableTask) {
  auto inst = basic();
  inst.candidates = {{0, {1000, 0}, 1.0}};  // cost 2.0 > reward 1.0
  const Selection s = DpSelector().select(inst);
  EXPECT_TRUE(s.empty());
}

TEST(DpSelector, RespectsTimeBudget) {
  auto inst = basic(100.0);                  // 200 m of walking
  inst.candidates = {{0, {150, 0}, 5.0},     // reachable
                     {1, {400, 0}, 50.0}};   // lucrative but out of reach
  const Selection s = DpSelector().select(inst);
  ASSERT_EQ(s.order.size(), 1u);
  EXPECT_EQ(s.order[0], 0);
  EXPECT_TRUE(is_feasible(inst, s));
}

TEST(DpSelector, FindsOptimalVisitingOrder) {
  // Tasks on a line: visiting 0 -> 1 -> 2 walks 300 m; any other order is
  // longer. All are worth selecting.
  auto inst = basic();
  inst.candidates = {{0, {100, 0}, 1.0}, {1, {200, 0}, 1.0}, {2, {300, 0}, 1.0}};
  const Selection s = DpSelector().select(inst);
  EXPECT_EQ(s.order, (std::vector<TaskId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(s.distance, 300.0);
}

TEST(DpSelector, TradesDetourAgainstReward) {
  // A detour task worth less than its marginal travel cost is excluded.
  auto inst = basic();
  inst.travel.cost_per_meter = 0.01;
  inst.candidates = {{0, {100, 0}, 2.0},
                     {1, {100, 300}, 2.9}};  // detour 300 m = $3.0 > $2.9
  const Selection s = DpSelector().select(inst);
  EXPECT_EQ(s.order, (std::vector<TaskId>{0}));
}

TEST(DpSelector, IncludesDetourWhenWorthIt) {
  auto inst = basic();
  inst.travel.cost_per_meter = 0.01;
  inst.candidates = {{0, {100, 0}, 2.0},
                     {1, {100, 300}, 3.1}};  // detour 300 m = $3.0 < $3.1
  const Selection s = DpSelector().select(inst);
  EXPECT_EQ(s.order.size(), 2u);
}

TEST(DpSelector, SelectionBookkeepingConsistent) {
  Rng rng(44);
  for (int trial = 0; trial < 30; ++trial) {
    auto inst = basic(rng.uniform(200.0, 1500.0));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    for (int i = 0; i < m; ++i) {
      inst.candidates.push_back(
          {i, {rng.uniform(0, 2000), rng.uniform(0, 2000)}, rng.uniform(0.5, 2.5)});
    }
    const Selection s = DpSelector().select(inst);
    const Selection replay = evaluate_order(inst, s.order);
    EXPECT_NEAR(replay.distance, s.distance, 1e-6);
    EXPECT_NEAR(replay.reward, s.reward, 1e-9);
    EXPECT_NEAR(replay.cost, s.cost, 1e-9);
    EXPECT_TRUE(is_feasible(inst, s));
    EXPECT_GE(s.profit(), 0.0);
  }
}

TEST(DpSelector, CapValidation) {
  EXPECT_THROW(DpSelector(0), Error);
  EXPECT_THROW(DpSelector(21), Error);
  EXPECT_NO_THROW(DpSelector(1));
  EXPECT_NO_THROW(DpSelector(20));
}

TEST(PruneCandidates, DropsUnreachable) {
  auto inst = basic(100.0);  // 200 m budget
  inst.candidates = {{0, {150, 0}, 1.0}, {1, {500, 0}, 9.0}};
  std::vector<Candidate> kept;
  prune_candidates_into(inst, 10, kept);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].task, 0);
}

TEST(PruneCandidates, KeepsBestBySoloProfit) {
  auto inst = basic(10000.0);
  // Task 1 has the best solo profit, task 2 the worst.
  inst.candidates = {{0, {500, 0}, 1.5}, {1, {100, 0}, 2.5}, {2, {900, 0}, 1.0}};
  std::vector<Candidate> kept;
  prune_candidates_into(inst, 2, kept);
  ASSERT_EQ(kept.size(), 2u);
  // Kept candidates stay in their original relative order.
  EXPECT_EQ(kept[0].task, 0);
  EXPECT_EQ(kept[1].task, 1);
}

TEST(PruneCandidates, NoopWhenUnderCap) {
  auto inst = basic();
  inst.candidates = {{0, {10, 0}, 1.0}};
  std::vector<Candidate> kept;
  prune_candidates_into(inst, 5, kept);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(DpSelector, ZeroBudgetSelectsNothing) {
  auto inst = basic(0.0);
  inst.candidates = {{0, {1, 0}, 5.0}};
  EXPECT_TRUE(DpSelector().select(inst).empty());
}

TEST(DpSelector, ColocatedTaskIsFree) {
  auto inst = basic(0.0);
  inst.candidates = {{0, {0, 0}, 5.0}};  // at the start location
  const Selection s = DpSelector().select(inst);
  ASSERT_EQ(s.order.size(), 1u);
  EXPECT_DOUBLE_EQ(s.profit(), 5.0);
}

}  // namespace
}  // namespace mcs::select
