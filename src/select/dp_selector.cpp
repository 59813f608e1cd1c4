#include "select/dp_selector.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "common/error.h"
#include "geo/distance.h"

namespace mcs::select {

namespace {

// Slack for the admissible state prune: a state is skipped only when its
// optimistic completion is at least this far below the incumbent, so
// floating-point rounding in the bound arithmetic (~1e-13 at campaign
// magnitudes) can never discard a state on the optimal chain. The bound is
// admissible because travel cost is linear in distance (TravelModel):
// every remaining candidate is entered by exactly one leg, and that leg is
// never shorter than the candidate's cheapest incoming edge.
constexpr Money kBoundSlack = 1e-9;

}  // namespace

DpSelector::DpSelector(int candidate_cap) : candidate_cap_(candidate_cap) {
  MCS_CHECK(candidate_cap >= 1 && candidate_cap <= 20,
            "DP candidate cap must be in [1, 20]");
}

void prune_candidates_into(const SelectionInstance& instance, int cap,
                           std::vector<Candidate>& kept) {
  kept.clear();
  const Meters budget = instance.distance_budget();
  // A task farther than the whole budget can never be on a feasible path.
  for (std::size_t i = 0; i < instance.candidates.size(); ++i) {
    const Candidate& c = instance.candidates[i];
    if (geo::euclidean(instance.start, c.location) > budget) continue;
    kept.push_back(c);
  }
  if (kept.size() <= static_cast<std::size_t>(cap)) return;

  // Score by the profit of performing the task alone; keep the best `cap`.
  std::vector<std::size_t> idx(kept.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  auto score = [&](std::size_t i) {
    const Candidate& c = kept[i];
    return c.reward - instance.travel.cost_for(
                          geo::euclidean(instance.start, c.location));
  };
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return score(a) > score(b); });
  idx.resize(static_cast<std::size_t>(cap));
  std::sort(idx.begin(), idx.end());  // keep original relative order
  // idx is ascending with idx[k] >= k, so the gather is safe in place.
  for (std::size_t k = 0; k < idx.size(); ++k) kept[k] = kept[idx[k]];
  kept.resize(idx.size());
}

Selection DpSelector::select(const SelectionInstance& instance) const {
  prune_candidates_into(instance, candidate_cap_, kept_);
  const std::size_t m = kept_.size();
  if (m == 0) return {};

  graph_.build(instance, kept_);
  const TravelGraph& g = graph_;
  const geo::TravelModel& travel = instance.travel;
  const Meters dist_budget = instance.distance_budget();
  const std::size_t num_masks = std::size_t{1} << m;
  const std::size_t all = num_masks - 1;

  // dp[mask * m + (j-1)]: shortest path visiting `mask`, ending at node j.
  dp_.assign(num_masks * m, kInf);
  // parent node (0 = start) for path reconstruction.
  parent_.assign(num_masks * m, -1);
  // Prefix sums over masks; every entry is written before it is read (the
  // recurrences only look at strict submasks), so no initialization pass.
  subset_reward_.resize(num_masks);
  gain_in_.resize(num_masks);
  subset_reward_[0] = 0.0;
  gain_in_[0] = 0.0;

  // net_gain_[q]: the most profit candidate q can add to any tour — its
  // reward minus the cost of its globally cheapest incoming edge.
  net_gain_.resize(m);
  Money total_gain = 0.0;
  for (std::size_t q = 0; q < m; ++q) {
    net_gain_[q] =
        std::max(0.0, g.reward(q + 1) - travel.cost_for(g.min_incoming(q + 1)));
    total_gain += net_gain_[q];
  }

  for (std::size_t j = 0; j < m; ++j) {
    const Meters d = g.dist(0, j + 1);
    if (d <= dist_budget) {
      const std::size_t mask = std::size_t{1} << j;
      dp_[mask * m + j] = d;
      parent_[mask * m + j] = 0;
    }
  }

  Money best_profit = 0.0;  // doing nothing is always available
  std::size_t best_mask = 0;
  std::size_t best_end = 0;
  Meters best_dist = 0.0;

  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    const auto low_j = static_cast<std::size_t>(std::countr_zero(mask));
    const std::size_t rest = mask & (mask - 1);  // mask without its low bit
    const Money mask_reward = subset_reward_[rest] + g.reward(low_j + 1);
    subset_reward_[mask] = mask_reward;
    gain_in_[mask] = gain_in_[rest] + net_gain_[low_j];

    // Score `mask` in place: transitions only write to strict supersets, so
    // its dp rows are final once the outer loop arrives here. Scanning
    // masks in ascending order with strict comparisons reproduces the
    // reference implementation's separate best-profit pass bit for bit.
    Meters shortest = kInf;
    std::size_t end = 0;
    for (std::size_t bits = mask; bits != 0; bits &= bits - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(bits));
      const Meters dj = dp_[mask * m + j];
      if (dj < shortest) {
        shortest = dj;
        end = j;
      }
    }
    if (shortest == kInf) continue;  // unreachable within budget
    const Money profit = mask_reward - travel.cost_for(shortest);
    if (profit > best_profit) {
      best_profit = profit;
      best_mask = mask;
      best_end = end;
      best_dist = shortest;
    }
    if (mask == all) continue;  // nothing left to extend

    // Optimistic profit still available outside `mask`.
    const Money gain_left = total_gain - gain_in_[mask];

    for (std::size_t bits = mask; bits != 0; bits &= bits - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(bits));
      const Meters cur = dp_[mask * m + j];
      if (cur == kInf) continue;
      // Dominated state: even completing with every remaining candidate at
      // its cheapest incoming edge cannot beat the incumbent, so no
      // descendant of this state can win — skip the whole expansion.
      if (mask_reward - travel.cost_for(cur) + gain_left + kBoundSlack <=
          best_profit) {
        continue;
      }
      // Extend by one unvisited task q (Eq. 12).
      for (std::size_t unv = all & ~mask; unv != 0; unv &= unv - 1) {
        const auto q = static_cast<std::size_t>(std::countr_zero(unv));
        const Meters next = cur + g.dist(j + 1, q + 1);
        if (next > dist_budget) continue;  // infeasible extension
        const std::size_t slot = (mask | (std::size_t{1} << q)) * m + q;
        if (next < dp_[slot]) {
          dp_[slot] = next;
          parent_[slot] = static_cast<std::int8_t>(j + 1);
        }
      }
    }
  }

  if (best_mask == 0) return {};

  // Reconstruct the visiting order by walking parents backwards.
  Selection s;
  s.distance = best_dist;
  s.reward = subset_reward_[best_mask];
  s.cost = travel.cost_for(best_dist);
  reversed_.clear();
  std::size_t mask = best_mask;
  std::size_t j = best_end;
  while (true) {
    reversed_.push_back(g.task(j + 1));
    const std::int8_t p = parent_[mask * m + j];
    MCS_ASSERT(p >= 0, "DP parent chain broken");
    mask ^= (std::size_t{1} << j);
    if (p == 0) break;
    j = static_cast<std::size_t>(p - 1);
  }
  MCS_ASSERT(mask == 0, "DP parent chain did not consume the mask");
  s.order.assign(reversed_.rbegin(), reversed_.rend());
  return s;
}

}  // namespace mcs::select
