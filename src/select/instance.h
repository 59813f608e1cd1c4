// One user's task-selection problem at one sensing round (Eq. 1):
// choose a subset of candidate tasks and a visiting order maximizing
// total reward minus travel cost, with travel time within the budget.
#pragma once

#include <vector>

#include "common/types.h"
#include "geo/path.h"
#include "geo/point.h"

namespace mcs::select {

/// A task the user could perform this round (not yet contributed to, not
/// completed, not expired, reward as published this round).
struct Candidate {
  TaskId task = kInvalidTask;
  geo::Point location;
  Money reward = 0.0;
};

/// The simulator's instances list the reachable open tasks: every open,
/// positively priced task the user has not contributed to whose straight-line
/// distance from `start` is within distance_budget(), in ascending task-row
/// order. A task beyond that budget can never be on a feasible tour, and the
/// simulator's exact selectors (DP, brute force, branch-and-bound) and the
/// greedy family return the same Selection with or without such candidates
/// (pinned by the solver-equivalence suite); solvers still accept instances
/// that list unreachable candidates.
struct SelectionInstance {
  geo::Point start;                  // user location at round start
  std::vector<Candidate> candidates;
  geo::TravelModel travel;
  Seconds time_budget = 0.0;         // B_ui^k

  /// Maximum travel distance the time budget allows.
  Meters distance_budget() const { return travel.distance_within(time_budget); }
};

/// A solution: the chosen tasks in visiting order plus its economics.
struct Selection {
  std::vector<TaskId> order;   // task ids in visiting order
  Meters distance = 0.0;       // length of the walked path
  Money reward = 0.0;          // sum of selected rewards
  Money cost = 0.0;            // travel.cost_for(distance)

  Money profit() const { return reward - cost; }
  bool empty() const { return order.empty(); }
};

/// Recompute a selection's economics from an instance (used to cross-check
/// solver bookkeeping in tests). Throws if the order references unknown
/// tasks or repeats one.
Selection evaluate_order(const SelectionInstance& instance,
                         const std::vector<TaskId>& order);

/// True when the selection respects the travel-time budget.
bool is_feasible(const SelectionInstance& instance, const Selection& s,
                 double tol = 1e-6);

}  // namespace mcs::select
