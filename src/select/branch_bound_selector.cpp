#include "select/branch_bound_selector.h"

#include <algorithm>
#include <vector>

#include "select/travel_graph.h"

namespace mcs::select {

namespace {

struct SearchState {
  const TravelGraph* g;
  const SelectionInstance* inst;
  Meters dist_budget;
  std::vector<bool> visited;
  std::vector<std::size_t> path;  // candidate node indices (1..m)
  Meters dist = 0.0;
  Money reward = 0.0;
  Money best_profit = 0.0;
  std::vector<std::size_t> best_path;
  Meters best_dist = 0.0;
  Money best_reward = 0.0;
};

/// Optimistic additional profit from `current` (0 = start): every unvisited
/// candidate is assumed reachable via its globally cheapest incoming edge.
Money optimistic_gain(const SearchState& st, std::size_t current,
                      Meters remaining) {
  Money gain = 0.0;
  const std::size_t m = st.g->num_candidates();
  for (std::size_t q = 1; q <= m; ++q) {
    if (st.visited[q - 1]) continue;
    const Meters cheapest =
        std::min(st.g->min_incoming(q), st.g->dist(current, q));
    if (cheapest > remaining) continue;  // cannot possibly reach q
    const Money add = st.g->reward(q) - st.inst->travel.cost_for(cheapest);
    if (add > 0.0) gain += add;
  }
  return gain;
}

void dfs(SearchState& st, std::size_t current) {
  const Money profit = st.reward - st.inst->travel.cost_for(st.dist);
  if (profit > st.best_profit) {
    st.best_profit = profit;
    st.best_path = st.path;
    st.best_dist = st.dist;
    st.best_reward = st.reward;
  }
  const Meters remaining = st.dist_budget - st.dist;
  if (profit + optimistic_gain(st, current, remaining) <= st.best_profit) {
    return;  // bound: even the optimistic completion cannot beat the best
  }
  const std::size_t m = st.g->num_candidates();
  for (std::size_t q = 1; q <= m; ++q) {
    if (st.visited[q - 1]) continue;
    const Meters leg = st.g->dist(current, q);
    if (st.dist + leg > st.dist_budget) continue;
    // Restore the running sums from saved copies, not by subtracting: a
    // path's distance and reward are then the exact left fold of its own
    // legs, whatever the search explored before reaching it.
    const Meters dist = st.dist;
    const Money reward = st.reward;
    st.visited[q - 1] = true;
    st.path.push_back(q);
    st.dist += leg;
    st.reward += st.g->reward(q);
    dfs(st, q);
    st.reward = reward;
    st.dist = dist;
    st.path.pop_back();
    st.visited[q - 1] = false;
  }
}

}  // namespace

Selection BranchBoundSelector::select(const SelectionInstance& instance) const {
  const std::size_t m = instance.candidates.size();
  if (m == 0) return {};

  const TravelGraph g(instance);
  SearchState st;
  st.g = &g;
  st.inst = &instance;
  st.dist_budget = instance.distance_budget();
  st.visited.assign(m, false);
  dfs(st, 0);

  Selection s;
  if (st.best_path.empty()) return s;
  for (const std::size_t node : st.best_path) s.order.push_back(g.task(node));
  s.distance = st.best_dist;
  s.reward = st.best_reward;
  s.cost = instance.travel.cost_for(st.best_dist);
  return s;
}

}  // namespace mcs::select
