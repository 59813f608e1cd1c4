// Optimal dynamic-programming task selection (paper §V-A).
//
// State: dp[mask][j] = length of the shortest simple path that starts at the
// user's location, visits exactly the candidate set `mask`, and ends at
// candidate j (Eq. 11). Transition: extend a set by one task (Eq. 12).
// Every subset whose shortest path fits the travel budget is scored by
// profit R(mask) - cost(dp[mask]); the best feasible subset wins.
// Complexity O(m^2 * 2^m) time, O(m * 2^m) memory.
//
// Implementation notes (all exactness- and bit-preserving; the equivalence
// suite pins the returned Selection against the straightforward reference
// DP):
//  * The DP table, parent table and per-mask prefix sums live in a scratch
//    arena owned by the selector and are reused across calls — a campaign
//    round runs hundreds of user sessions and the per-call allocation of
//    the 2^m * m table dominated setup time. THREADING CONTRACT: the arena
//    makes select() non-reentrant; every simulator (and thus every runner
//    thread) must own its private DpSelector, which is what
//    make_selector() per Simulator already guarantees. Selectors must not
//    be shared across concurrently running simulators.
//  * Set-bit iteration uses countr_zero / clear-lowest-bit instead of
//    probing all m bits per state.
//  * The best-profit scan is fused into the relaxation sweep: when the
//    outer loop reaches `mask`, transitions (which only ever write to
//    strict supersets) can no longer change its rows, so the mask is scored
//    in place.
//  * States are expanded only when an admissible upper bound — current
//    profit plus every unvisited candidate at its globally cheapest
//    incoming edge (TravelGraph::min_incoming, the branch-and-bound bound)
//    — can still beat the incumbent. The bound is evaluated with a small
//    slack so floating-point rounding can never prune a state on the
//    optimal chain; dominated masks are simply never expanded.
//
// Instances larger than `candidate_cap` are first pruned to the cap by a
// reward-minus-detour score (the paper's experiments use m = 20 total tasks,
// but per-user candidate sets shrink quickly as tasks complete; the cap
// keeps worst-case rounds tractable). With pruning the result is optimal
// w.r.t. the kept candidates.
#pragma once

#include <cstdint>

#include "select/selector.h"
#include "select/travel_graph.h"

namespace mcs::select {

class DpSelector final : public TaskSelector {
 public:
  /// `candidate_cap` must be in [1, 20] (the table is 2^cap * (cap+1)).
  explicit DpSelector(int candidate_cap = 14);

  const char* name() const override { return "dp"; }

  Selection select(const SelectionInstance& instance) const override;

  std::unique_ptr<TaskSelector> clone() const override {
    return std::make_unique<DpSelector>(candidate_cap_);
  }

  int candidate_cap() const { return candidate_cap_; }

  /// Exact up to the cap: larger instances are reward-pruned first.
  int exact_candidate_limit() const override { return candidate_cap_; }

 private:
  int candidate_cap_;

  // Scratch arena (see threading contract above). Mutable because select()
  // is logically const: the arena never carries state between calls, it
  // only keeps its capacity.
  mutable std::vector<Candidate> kept_;
  mutable TravelGraph graph_;
  mutable std::vector<Meters> dp_;
  mutable std::vector<std::int8_t> parent_;
  mutable std::vector<Money> subset_reward_;  // R(mask)
  mutable std::vector<Money> gain_in_;        // optimistic gain inside mask
  mutable std::vector<Money> net_gain_;       // per-candidate bound term
  mutable std::vector<TaskId> reversed_;
};

/// Drop candidates that cannot be reached within the budget at all, then, if
/// still above `cap`, keep the `cap` best by reward - cost(direct distance).
/// Writes the kept candidates (original relative order) into `kept` without
/// allocating once `kept` has grown. Exposed for tests.
void prune_candidates_into(const SelectionInstance& instance, int cap,
                           std::vector<Candidate>& kept);

}  // namespace mcs::select
