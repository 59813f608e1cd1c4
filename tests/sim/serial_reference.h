// The serial one-user-at-a-time reference every round-loop equivalence
// suite (plan, shard, commit, plan memo) compares against.
//
// The reference is the intra-round session loop: mobility, dropout, plan
// and commit for one user at a time in visit order, each session committed
// as a one-user segment, on the simulator's own selector. FrozenPriceSessions
// drives it with a round-granularity mechanism: it claims
// updates_within_round() but its reprice() is a no-op, so every session sees
// the round-start prices the round-granularity loop plans and pays against.
// That loop must then reproduce the reference bit for bit at any worker
// count — except under stochastic mobility, where the reference draws the
// serial stream and the round loop per-user substreams.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "incentive/mechanism.h"
#include "model/world.h"
#include "select/plan_memo.h"
#include "select/selector.h"
#include "sim/event_log.h"
#include "sim/mobility.h"
#include "sim/serialize.h"
#include "sim/simulator.h"

namespace mcs::sim::serial_reference {

// Forwards pricing to a round-granularity mechanism but takes the
// intra-round session loop with frozen prices. The simulator reads prices
// through the base class's non-virtual reward_rows(), so the adapter
// mirrors the inner reward table after every pricing call.
class FrozenPriceSessions final : public incentive::IncentiveMechanism {
 public:
  explicit FrozenPriceSessions(
      std::unique_ptr<incentive::IncentiveMechanism> inner)
      : inner_(std::move(inner)) {
    mirror();
  }

  const char* name() const override { return inner_->name(); }

  void update_rewards(const model::World& world, Round k) override {
    inner_->update_rewards(world, k);
    mirror();
  }

  bool updates_within_round() const override { return true; }

  void reprice(const model::World&, Round,
               const std::vector<std::size_t>&) override {}

  Json state_to_json() const override { return inner_->state_to_json(); }

  void restore_state(const Json& state) override {
    inner_->restore_state(state);
    mirror();
  }

 private:
  void mirror() {
    rewards_ = inner_->rewards();
    rewards_by_row_ = inner_->reward_rows() != nullptr;
  }

  std::unique_ptr<incentive::IncentiveMechanism> inner_;
};

// The reference simulator for a campaign: a round-granularity `mechanism`
// is wrapped in FrozenPriceSessions (an intra-round one already runs the
// session loop), with one worker and the memo off.
inline Simulator make_reference(
    model::World world, std::unique_ptr<incentive::IncentiveMechanism> mechanism,
    std::unique_ptr<select::TaskSelector> selector, SimulatorParams sp,
    std::unique_ptr<MobilityModel> mobility = nullptr) {
  if (!mechanism->updates_within_round()) {
    mechanism = std::make_unique<FrozenPriceSessions>(std::move(mechanism));
  }
  sp.shards = 0;
  sp.plan_threads = 1;
  sp.memo.enabled = false;
  return Simulator(std::move(world), std::move(mechanism), std::move(selector),
                   sp, std::move(mobility));
}

// What a finished campaign is compared by.
struct CampaignRun {
  std::vector<RoundMetrics> rounds;
  Money spent = 0.0;
  // The raw Neumaier words, not just their sum: the merge must reproduce
  // the exact accumulation order, and these two words are its witnesses.
  Money spent_raw = 0.0;
  Money spent_comp = 0.0;
  std::string world_json;
  std::string events_json;  // "[]" unless the run recorded events
  select::PlanMemoStats memo_stats;
};

inline CampaignRun finish(const Simulator& s) {
  CampaignRun out;
  out.rounds = s.history();
  out.spent = s.budget().spent();
  out.spent_raw = s.budget().spent_raw();
  out.spent_comp = s.budget().compensation();
  out.world_json = world_to_json(s.world()).dump(2);
  out.events_json = events_to_json(s.events()).dump();
  out.memo_stats = s.plan_memo_stats();
  return out;
}

// Everything bit-identical except mean_open_reward: the session loop
// averages the (identical) per-session means instead of recording the
// round-start mean once, which may round differently in the last ulp.
// Memo statistics are not compared (the reference never memoizes).
inline void expect_bit_identical(const CampaignRun& ref, const CampaignRun& b) {
  EXPECT_EQ(ref.world_json, b.world_json);
  EXPECT_EQ(ref.spent, b.spent);
  EXPECT_EQ(ref.spent_raw, b.spent_raw);
  EXPECT_EQ(ref.spent_comp, b.spent_comp);
  EXPECT_EQ(ref.events_json, b.events_json);
  ASSERT_EQ(ref.rounds.size(), b.rounds.size());
  for (std::size_t k = 0; k < ref.rounds.size(); ++k) {
    RoundMetrics x = ref.rounds[k];
    RoundMetrics y = b.rounds[k];
    EXPECT_NEAR(x.mean_open_reward, y.mean_open_reward,
                1e-12 * std::max(1.0, y.mean_open_reward))
        << "round " << k;
    x.mean_open_reward = y.mean_open_reward = 0.0;
    EXPECT_EQ(rounds_to_json({x}).dump(), rounds_to_json({y}).dump())
        << "round " << k;
  }
}

// Two runs of the round-granularity loop (any worker counts, or a run and
// its resumed twin): every witness bit-equal, mean_open_reward included.
inline void expect_same_campaign(const CampaignRun& a, const CampaignRun& b) {
  EXPECT_EQ(a.world_json, b.world_json);
  EXPECT_EQ(a.spent_raw, b.spent_raw);
  EXPECT_EQ(a.spent_comp, b.spent_comp);
  EXPECT_EQ(a.events_json, b.events_json);
  EXPECT_EQ(rounds_to_json(a.rounds).dump(), rounds_to_json(b.rounds).dump());
}

}  // namespace mcs::sim::serial_reference
