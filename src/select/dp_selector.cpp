#include "select/dp_selector.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

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
  // Each candidate is scored once, before the sort.
  struct Scored {
    Money score;
    std::size_t index;
  };
  std::vector<Scored> ranked(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Candidate& c = kept[i];
    ranked[i] = {c.reward - instance.travel.cost_for(
                                geo::euclidean(instance.start, c.location)),
                 i};
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Scored& a, const Scored& b) { return a.score > b.score; });
  ranked.resize(static_cast<std::size_t>(cap));
  // Keep the original relative order.
  std::sort(ranked.begin(), ranked.end(),
            [](const Scored& a, const Scored& b) { return a.index < b.index; });
  // Indices ascend with ranked[k].index >= k, so the gather is safe in place.
  for (std::size_t k = 0; k < ranked.size(); ++k) kept[k] = kept[ranked[k].index];
  kept.resize(ranked.size());
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

  // dp_[mask * m + j]: shortest path visiting `mask`, ending at node j + 1;
  // parent_ the node before it (0 = start). Both are read only where live_
  // says this call wrote them, so growth needs no initialization.
  if (num_masks * m > table_capacity_) {
    table_capacity_ = num_masks * m;
    dp_ = std::make_unique_for_overwrite<Meters[]>(table_capacity_);
    parent_ = std::make_unique_for_overwrite<std::int8_t[]>(table_capacity_);
  }
  // Growth appends zeros; the existing words are zero between calls.
  if (live_.size() < num_masks) live_.resize(num_masks, 0);
  const std::size_t num_words = (num_masks + 63) / 64;
  if (pending_.size() < num_words) pending_.resize(num_words, 0);
  Meters* const dp = dp_.get();
  std::int8_t* const parent = parent_.get();
  std::uint32_t* const live = live_.data();
  std::uint64_t* const pending = pending_.data();

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
      live[mask] = std::uint32_t{1} << j;
      dp[mask * m + j] = d;
      parent[mask * m + j] = 0;
      pending[mask >> 6] |= std::uint64_t{1} << (mask & 63);
    }
  }

  Money best_profit = 0.0;  // doing nothing is always available
  Money best_reward = 0.0;
  std::size_t best_mask = 0;
  std::size_t best_end = 0;
  Meters best_dist = 0.0;

  for (std::size_t w = 0; w < num_words; ++w) {
    // Re-read the word each time: expanding a mask may add higher bits.
    while (pending[w] != 0) {
      const std::uint64_t word = pending[w];
      pending[w] = word & (word - 1);
      const std::size_t mask =
          (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
      const std::uint32_t ends = live[mask];
      live[mask] = 0;
      const Meters* const row = dp + mask * m;

      // R(mask) and the bound's inside gain, highest bit first: the order of
      // the prefix recurrence R(mask) = R(mask without its low bit) + r(low),
      // so the sums match the reference bit for bit.
      Money mask_reward = 0.0;
      Money gain_in = 0.0;
      for (std::size_t bits = mask; bits != 0;) {
        const auto h = static_cast<std::size_t>(std::bit_width(bits) - 1);
        mask_reward += g.reward(h + 1);
        gain_in += net_gain_[h];
        bits ^= std::size_t{1} << h;
      }

      // Score `mask` in place: transitions only write to strict supersets,
      // so its rows are final once the walk arrives here. Scanning masks in
      // ascending order with strict comparisons reproduces the reference
      // implementation's separate best-profit pass bit for bit.
      Meters shortest = kInf;
      std::size_t end = 0;
      for (std::uint32_t bits = ends; bits != 0; bits &= bits - 1) {
        const auto j = static_cast<std::size_t>(std::countr_zero(bits));
        if (row[j] < shortest) {
          shortest = row[j];
          end = j;
        }
      }
      const Money profit = mask_reward - travel.cost_for(shortest);
      if (profit > best_profit) {
        best_profit = profit;
        best_reward = mask_reward;
        best_mask = mask;
        best_end = end;
        best_dist = shortest;
      }
      if (mask == all) continue;  // nothing left to extend

      // Optimistic profit still available outside `mask`. Dominated ends —
      // even completing with every remaining candidate at its cheapest
      // incoming edge cannot beat the incumbent, so no descendant can win —
      // are not expanded.
      const Money gain_left = total_gain - gain_in;
      std::uint32_t open_ends = 0;
      for (std::uint32_t bits = ends; bits != 0; bits &= bits - 1) {
        const int j = std::countr_zero(bits);
        if (!(mask_reward - travel.cost_for(row[j]) + gain_left + kBoundSlack <=
              best_profit)) {
          open_ends |= std::uint32_t{1} << j;
        }
      }
      if (open_ends == 0) continue;

      // Extend by one unvisited task q (Eq. 12). State (mask | q, q) has
      // exactly one predecessor mask, this one, so its slot is settled here:
      // the shortest feasible extension, first end j on ties — the order in
      // which the reference relaxes j outer, q inner.
      for (std::size_t unv = all & ~mask; unv != 0; unv &= unv - 1) {
        const auto q = static_cast<std::size_t>(std::countr_zero(unv));
        Meters shortest_next = kInf;
        std::size_t from = 0;
        for (std::uint32_t bits = open_ends; bits != 0; bits &= bits - 1) {
          const auto j = static_cast<std::size_t>(std::countr_zero(bits));
          const Meters next = row[j] + g.dist(j + 1, q + 1);
          if (next <= dist_budget && next < shortest_next) {
            shortest_next = next;
            from = j;
          }
        }
        if (shortest_next == kInf) continue;  // no feasible extension
        const std::size_t nmask = mask | (std::size_t{1} << q);
        if (live[nmask] == 0) pending[nmask >> 6] |= std::uint64_t{1} << (nmask & 63);
        live[nmask] |= std::uint32_t{1} << q;
        dp[nmask * m + q] = shortest_next;
        parent[nmask * m + q] = static_cast<std::int8_t>(from + 1);
      }
    }
  }

  if (best_mask == 0) return {};

  // Reconstruct the visiting order by walking parents backwards. Every state
  // on the chain was written by this call: a state's parent was live when it
  // relaxed it, and a walked mask's rows are never written again.
  Selection s;
  s.distance = best_dist;
  s.reward = best_reward;
  s.cost = travel.cost_for(best_dist);
  reversed_.clear();
  std::size_t mask = best_mask;
  std::size_t j = best_end;
  while (true) {
    reversed_.push_back(g.task(j + 1));
    const std::int8_t p = parent[mask * m + j];
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
