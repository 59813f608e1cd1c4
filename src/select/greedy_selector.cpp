#include "select/greedy_selector.h"

#include <vector>

#include "geo/distance.h"
#include "select/two_opt.h"

namespace mcs::select {

GreedySelector::GreedySelector(bool improve_with_two_opt)
    : two_opt_(improve_with_two_opt) {}

Selection GreedySelector::select(const SelectionInstance& instance) const {
  const Meters dist_budget = instance.distance_budget();
  std::vector<bool> taken(instance.candidates.size(), false);

  Selection s;
  geo::Point at = instance.start;
  while (true) {
    // Pick the unvisited candidate with the best positive marginal profit
    // whose leg still fits in the remaining budget.
    std::size_t best = instance.candidates.size();
    Money best_marginal = 0.0;
    Meters best_leg = 0.0;
    for (std::size_t i = 0; i < instance.candidates.size(); ++i) {
      if (taken[i]) continue;
      const Candidate& c = instance.candidates[i];
      const Meters leg = geo::euclidean(at, c.location);
      if (s.distance + leg > dist_budget) continue;
      const Money marginal = c.reward - instance.travel.cost_for(leg);
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = i;
        best_leg = leg;
      }
    }
    if (best == instance.candidates.size()) break;  // no satisfying task

    taken[best] = true;
    const Candidate& c = instance.candidates[best];
    s.order.push_back(c.task);
    s.distance += best_leg;
    s.reward += c.reward;
    at = c.location;
  }
  s.cost = instance.travel.cost_for(s.distance);

  if (two_opt_ && s.order.size() >= 3) {
    s = improve_two_opt(instance, s);
  }
  return s;
}

}  // namespace mcs::select
