// Optimal dynamic-programming task selection (paper §V-A).
//
// State: dp[mask][j] = length of the shortest simple path that starts at the
// user's location, visits exactly the candidate set `mask`, and ends at
// candidate j (Eq. 11). Transition: extend a set by one task (Eq. 12).
// Every subset whose shortest path fits the travel budget is scored by
// profit R(mask) - cost(dp[mask]); the best feasible subset wins.
// Complexity O(m^2 * 2^m) time, O(m * 2^m) memory.
//
// The worst case is unchanged, but a call pays only for the states it
// reaches: the admissible bound prune and the travel budget leave most masks
// unreached (1.3% of them are reached at m = 14 on the selector-scaling
// bench panels), and none of the table outside the reached states is filled
// or scanned.
//
// Implementation notes (all exactness- and bit-preserving; the equivalence
// suite pins the returned Selection against the straightforward reference
// DP):
//  * The DP table, parent table and bookkeeping live in a scratch arena owned
//    by the selector and are reused across calls — a campaign round runs
//    hundreds of user sessions. THREADING CONTRACT: the arena makes select()
//    non-reentrant; every simulator (and thus every runner thread) must own
//    its private DpSelector, which is what make_selector() per Simulator
//    already guarantees. Selectors must not be shared across concurrently
//    running simulators.
//  * Lazy rows: live_[mask] has bit j set iff dp[mask][j] holds a path from
//    this call, so the table is never filled with kInf; it is only read
//    where a live bit says it was written, and it grows without
//    initialization.
//  * State (mask | q, q) has exactly one predecessor mask, so each walked
//    mask settles its successors' slots itself: for every unvisited q it
//    takes the shortest feasible extension over its non-dominated ends,
//    the lowest end on ties (what relaxing end j outer, q inner with strict
//    `<` keeps), and writes the slot and its live bit once.
//  * A walk over reached masks: the first write to a mask sets its bit in a
//    pending bitmap, and the outer loop takes pending bits in ascending
//    order (countr_zero, re-reading the current word, since expansions only
//    add strict supersets). Ascending order is what the strict
//    `profit > best` tie-break and the incumbent-dependent prune rely on.
//    The walk clears each pending bit and live word as it consumes the mask,
//    so both are all-zero again when select() returns and are never cleared
//    per call.
//  * R(mask) and the bound's inside gain are summed at each reached mask from
//    the highest bit down — the exact order of the prefix recurrence
//    R(mask) = R(mask without its low bit) + r(low).
//  * The best-profit scan is fused into the walk: when it reaches `mask`,
//    transitions (which only ever write to strict supersets) can no longer
//    change its rows, so the mask is scored in place.
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
#include <memory>

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
  // is logically const: between calls live_ and pending_ are all-zero and
  // the tables hold nothing a later call reads; the arena only keeps its
  // capacity.
  mutable std::vector<Candidate> kept_;
  mutable TravelGraph graph_;
  mutable std::unique_ptr<Meters[]> dp_;          // [mask * m + j], lazy
  mutable std::unique_ptr<std::int8_t[]> parent_;  // same layout as dp_
  mutable std::size_t table_capacity_ = 0;
  mutable std::vector<std::uint32_t> live_;     // per mask: written ends
  mutable std::vector<std::uint64_t> pending_;  // reached, not yet walked
  mutable std::vector<Money> net_gain_;         // per-candidate bound term
  mutable std::vector<TaskId> reversed_;
};

/// Drop candidates that cannot be reached within the budget at all, then, if
/// still above `cap`, keep the `cap` best by reward - cost(direct distance).
/// Writes the kept candidates (original relative order) into `kept` without
/// allocating once `kept` has grown. Exposed for tests.
void prune_candidates_into(const SelectionInstance& instance, int cap,
                           std::vector<Candidate>& kept);

}  // namespace mcs::select
