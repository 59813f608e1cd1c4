#include "incentive/on_demand_mechanism.h"

#include "common/error.h"
#include "common/thread_pool.h"

namespace mcs::incentive {

OnDemandMechanism::OnDemandMechanism(DemandIndicator indicator,
                                     DemandLevelScale scale, RewardRule rule)
    : indicator_(std::move(indicator)), scale_(scale), rule_(rule) {
  rewards_by_row_ = true;  // rewards_ is indexed by task position
}

void OnDemandMechanism::update_rewards(const model::World& world, Round k) {
  const std::vector<int>& counts = world.neighbor_counts();
  const model::TaskStore& ts = world.task_store();
  const std::size_t n = ts.size();
  MCS_CHECK(counts.size() == n, "one neighbor count per task");
  const int nmax = max_neighbors(counts);
  last_demands_.resize(n);
  last_levels_.resize(n);
  rewards_.resize(n);
  // Fused demand/level/reward sweep, fanned over the reprice pool in
  // disjoint task-row ranges: one pass over the store columns instead of
  // three (demands, levels, pricing), and every row writes only its own
  // slots, so the result is bit-identical at any worker count. The per-row
  // operation is the serial oracle's (DemandIndicator::normalized_demands,
  // then DemandLevelScale::level, then the withdrawn-gated reward;
  // received >= required / k > deadline are Task::completed()/expired_at()
  // verbatim).
  parallel_ranges(
      reprice_pool_, reprice_workers_, n,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const int received = static_cast<int>(ts.measurements[i].size());
          const double d = indicator_.normalize(indicator_.demand_from_fields(
              ts.deadline[i], ts.required[i], received, k, counts[i], nmax));
          last_demands_[i] = d;
          last_levels_[i] = scale_.level(d);
          const bool withdrawn = received >= ts.required[i] || k > ts.deadline[i];
          rewards_[i] = withdrawn ? 0.0 : rule_.reward(last_levels_[i]);
        }
      });
}

Json OnDemandMechanism::state_to_json() const {
  Json state = IncentiveMechanism::state_to_json();
  state["last_demands"] = money_array(last_demands_);
  state["last_levels"] = int_array(last_levels_);
  return state;
}

void OnDemandMechanism::restore_state(const Json& state) {
  IncentiveMechanism::restore_state(state);
  last_demands_ = money_vector(state.at("last_demands"));
  last_levels_ = int_vector(state.at("last_levels"));
}

}  // namespace mcs::incentive
