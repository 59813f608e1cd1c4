// The paper's demand-based dynamic ("pay on-demand") incentive mechanism.
//
// Once per round (Fig. 1 step 1): evaluate the AHP-weighted demand
// indicator for each task, normalize, quantize into demand levels, and price
// with the linear rule of Eq. 7, all in one fused sweep over the task rows.
// Completed and expired tasks get reward 0 (they are withdrawn). Prices are
// never revised inside a round, so the mechanism keeps the default full
// reprice() and no incremental state.
#pragma once

#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/mechanism.h"
#include "incentive/reward.h"

namespace mcs::incentive {

class OnDemandMechanism final : public IncentiveMechanism {
 public:
  OnDemandMechanism(DemandIndicator indicator, DemandLevelScale scale,
                    RewardRule rule);

  const char* name() const override { return "on-demand"; }

  /// Allocation-free in steady state: demand/level/reward buffers are
  /// members reused across rounds (pinned by bench_incentive_micro's
  /// operator-new counter).
  void update_rewards(const model::World& world, Round k) override;

  /// Checkpoint state: the published demand/level/reward snapshot. Every
  /// update recomputes from the world alone, so nothing else carries over;
  /// the reprice bookkeeping keys older payloads hold (last_max_neighbors,
  /// last_round, published) are ignored on restore.
  Json state_to_json() const override;
  void restore_state(const Json& state) override;

  /// Introspection of the most recent update (for tests, traces and the
  /// Table III bench): normalized demands and levels per task.
  const std::vector<double>& last_normalized_demands() const {
    return last_demands_;
  }
  const std::vector<int>& last_levels() const { return last_levels_; }

  const DemandIndicator& indicator() const { return indicator_; }
  const RewardRule& rule() const { return rule_; }
  const DemandLevelScale& scale() const { return scale_; }

 private:
  DemandIndicator indicator_;
  DemandLevelScale scale_;
  RewardRule rule_;
  std::vector<double> last_demands_;
  std::vector<int> last_levels_;
};

}  // namespace mcs::incentive
