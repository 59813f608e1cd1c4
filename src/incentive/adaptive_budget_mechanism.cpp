#include "incentive/adaptive_budget_mechanism.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"

namespace mcs::incentive {

AdaptiveBudgetMechanism::AdaptiveBudgetMechanism(DemandIndicator indicator,
                                                 DemandLevelScale scale,
                                                 Money budget, Money lambda,
                                                 Money r0_cap_factor)
    : indicator_(std::move(indicator)),
      scale_(scale),
      budget_(budget),
      lambda_(lambda),
      r0_cap_factor_(r0_cap_factor) {
  rewards_by_row_ = true;  // rewards_ is indexed by task position
  MCS_CHECK(budget > 0.0, "budget must be positive");
  MCS_CHECK(lambda >= 0.0, "lambda must be non-negative");
  MCS_CHECK(r0_cap_factor >= 1.0, "r0 cap factor must be at least 1");
}

void AdaptiveBudgetMechanism::update_rewards(const model::World& world,
                                             Round k) {
  // Remaining budget and still-missing measurements (useful ones only),
  // swept over the store columns (k > deadline is Task::expired_at()
  // verbatim, measurement size is Task::received()).
  const Money spent = world.total_paid();
  const Money remaining = std::max(Money{0}, budget_ - spent);
  const model::TaskStore& ts = world.task_store();
  const std::size_t n = ts.size();
  long long missing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (k > ts.deadline[i]) continue;
    missing += std::max(
        0, ts.required[i] - static_cast<int>(ts.measurements[i].size()));
  }

  if (initial_r0_ == 0.0) {
    MCS_CHECK(missing > 0, "campaign starts with nothing to sense");
    initial_r0_ = budget_ / static_cast<Money>(missing) -
                  lambda_ * static_cast<Money>(scale_.levels() - 1);
    MCS_CHECK(initial_r0_ > 0.0,
              "budget too small: Eq. 9 yields a non-positive base reward");
  }

  Money r0;
  if (missing <= 0 || remaining <= 0.0) {
    r0 = initial_r0_;  // nothing open or nothing left; rewards moot below
  } else {
    r0 = remaining / static_cast<Money>(missing) -
         lambda_ * static_cast<Money>(scale_.levels() - 1);
  }
  // Never price below the paper's static rule (participation floor), never
  // above the escalation cap.
  r0 = std::clamp(r0, initial_r0_, initial_r0_ * r0_cap_factor_);
  rule_ = std::make_unique<RewardRule>(r0, lambda_, scale_.levels());

  // One fused demand/level/reward sweep over the store columns, fanned over
  // the reprice pool in disjoint task-row ranges: each row writes only its
  // own slots, so any worker count is bit-identical. last_demands_ and
  // last_levels_ are scratch (recomputed every round, never read across
  // rounds), hence not part of the checkpoint state.
  const std::vector<int>& counts = world.neighbor_counts();
  MCS_CHECK(counts.size() == n, "one neighbor count per task");
  const int nmax = max_neighbors(counts);
  last_demands_.resize(n);
  last_levels_.resize(n);
  rewards_.resize(n);
  const RewardRule& rule = *rule_;
  parallel_ranges(
      reprice_pool_, reprice_workers_, n,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const int received = static_cast<int>(ts.measurements[i].size());
          const double d = indicator_.normalize(indicator_.demand_from_fields(
              ts.deadline[i], ts.required[i], received, k, counts[i], nmax));
          last_demands_[i] = d;
          last_levels_[i] = scale_.level(d);
          // Affordability guard: stop publishing rewards the remaining
          // budget cannot honor for the task's missing measurements.
          const bool withdrawn =
              received >= ts.required[i] || k > ts.deadline[i];
          rewards_[i] = (withdrawn || remaining <= 0.0)
                            ? 0.0
                            : rule.reward(last_levels_[i]);
        }
      });
}

Json AdaptiveBudgetMechanism::state_to_json() const {
  Json state = IncentiveMechanism::state_to_json();
  state["initial_r0"] = initial_r0_;
  if (rule_ != nullptr) state["rule_r0"] = rule_->r0();
  return state;
}

void AdaptiveBudgetMechanism::restore_state(const Json& state) {
  IncentiveMechanism::restore_state(state);
  initial_r0_ = state.at("initial_r0").as_number();
  MCS_CHECK(initial_r0_ >= 0.0, "initial r0 must be non-negative");
  if (state.has("rule_r0")) {
    rule_ = std::make_unique<RewardRule>(state.at("rule_r0").as_number(),
                                         lambda_, scale_.levels());
  } else {
    rule_.reset();
  }
}

const RewardRule& AdaptiveBudgetMechanism::current_rule() const {
  MCS_CHECK(rule_ != nullptr, "update_rewards not called yet");
  return *rule_;
}

}  // namespace mcs::incentive
