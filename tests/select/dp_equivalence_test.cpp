// Equivalence pins for the optimized DpSelector (scratch arena with lazy
// rows, walk over reached masks, bit iteration, fused best scan, admissible
// state prune): the returned
// Selection must be IDENTICAL — same visiting order and
// bit-identical economics, not merely the same profit — to the
// straightforward pre-optimization DP, reproduced verbatim below as the
// oracle. Profits are additionally cross-checked against the independent
// exact solvers (branch-and-bound, brute force).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "geo/distance.h"
#include "select/branch_bound_selector.h"
#include "select/brute_force_selector.h"
#include "select/dp_selector.h"
#include "select/travel_graph.h"

namespace mcs::select {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: the seed-repo DP (allocating, unpruned, separate
// best-profit pass), kept verbatim so optimizations can be diffed against
// the exact bits it produces.
// ---------------------------------------------------------------------------

SelectionInstance reference_prune(const SelectionInstance& instance, int cap) {
  SelectionInstance pruned = instance;
  const Meters budget = instance.distance_budget();
  std::erase_if(pruned.candidates, [&](const Candidate& c) {
    return geo::euclidean(instance.start, c.location) > budget;
  });
  if (pruned.candidates.size() <= static_cast<std::size_t>(cap)) return pruned;

  std::vector<std::size_t> idx(pruned.candidates.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  auto score = [&](std::size_t i) {
    const Candidate& c = pruned.candidates[i];
    return c.reward - instance.travel.cost_for(
                          geo::euclidean(instance.start, c.location));
  };
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return score(a) > score(b); });
  idx.resize(static_cast<std::size_t>(cap));
  std::sort(idx.begin(), idx.end());
  std::vector<Candidate> kept;
  kept.reserve(idx.size());
  for (const std::size_t i : idx) kept.push_back(pruned.candidates[i]);
  pruned.candidates = std::move(kept);
  return pruned;
}

Selection reference_dp_select(const SelectionInstance& instance, int cap) {
  const SelectionInstance inst = reference_prune(instance, cap);
  const std::size_t m = inst.candidates.size();
  if (m == 0) return {};

  const TravelGraph g(inst);
  const Meters dist_budget = inst.distance_budget();
  const std::size_t num_masks = std::size_t{1} << m;

  std::vector<Meters> dp(num_masks * m, kInf);
  std::vector<std::int8_t> parent(num_masks * m, -1);

  for (std::size_t j = 0; j < m; ++j) {
    const Meters d = g.dist(0, j + 1);
    if (d <= dist_budget) {
      const std::size_t mask = std::size_t{1} << j;
      dp[mask * m + j] = d;
      parent[mask * m + j] = 0;
    }
  }

  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    for (std::size_t j = 0; j < m; ++j) {
      if (!(mask & (std::size_t{1} << j))) continue;
      const Meters cur = dp[mask * m + j];
      if (cur == kInf) continue;
      for (std::size_t q = 0; q < m; ++q) {
        if (mask & (std::size_t{1} << q)) continue;
        const Meters next = cur + g.dist(j + 1, q + 1);
        if (next > dist_budget) continue;
        const std::size_t nmask = mask | (std::size_t{1} << q);
        if (next < dp[nmask * m + q]) {
          dp[nmask * m + q] = next;
          parent[nmask * m + q] = static_cast<std::int8_t>(j + 1);
        }
      }
    }
  }

  std::vector<Money> subset_reward(num_masks, 0.0);
  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    const std::size_t low = mask & (~mask + 1);
    const std::size_t j = static_cast<std::size_t>(std::countr_zero(mask));
    subset_reward[mask] = subset_reward[mask ^ low] + g.reward(j + 1);
  }

  Money best_profit = 0.0;
  std::size_t best_mask = 0;
  std::size_t best_end = 0;
  Meters best_dist = 0.0;
  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    Meters shortest = kInf;
    std::size_t end = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (!(mask & (std::size_t{1} << j))) continue;
      if (dp[mask * m + j] < shortest) {
        shortest = dp[mask * m + j];
        end = j;
      }
    }
    if (shortest == kInf) continue;
    const Money profit = subset_reward[mask] - inst.travel.cost_for(shortest);
    if (profit > best_profit) {
      best_profit = profit;
      best_mask = mask;
      best_end = end;
      best_dist = shortest;
    }
  }

  if (best_mask == 0) return {};

  Selection s;
  s.distance = best_dist;
  s.reward = subset_reward[best_mask];
  s.cost = inst.travel.cost_for(best_dist);
  std::vector<TaskId> reversed;
  std::size_t mask = best_mask;
  std::size_t j = best_end;
  while (true) {
    reversed.push_back(g.task(j + 1));
    const std::int8_t p = parent[mask * m + j];
    mask ^= (std::size_t{1} << j);
    if (p == 0) break;
    j = static_cast<std::size_t>(p - 1);
  }
  s.order.assign(reversed.rbegin(), reversed.rend());
  return s;
}

// ---------------------------------------------------------------------------

SelectionInstance random_instance(Rng& rng, int m, double budget_s,
                                  double cost_per_meter, double area) {
  SelectionInstance inst;
  inst.start = {rng.uniform(0.0, area), rng.uniform(0.0, area)};
  inst.travel.cost_per_meter = cost_per_meter;
  inst.time_budget = budget_s;
  for (int i = 0; i < m; ++i) {
    inst.candidates.push_back({static_cast<TaskId>(i),
                               {rng.uniform(0.0, area), rng.uniform(0.0, area)},
                               rng.uniform(0.25, 2.5)});
  }
  return inst;
}

void expect_selection_identical(const Selection& got, const Selection& want,
                                const char* what) {
  EXPECT_EQ(got.order, want.order) << what;
  // Bit-identical economics: EXPECT_EQ on doubles, not EXPECT_NEAR.
  EXPECT_EQ(got.distance, want.distance) << what;
  EXPECT_EQ(got.reward, want.reward) << what;
  EXPECT_EQ(got.cost, want.cost) << what;
}

TEST(DpEquivalence, OptimizedDpBitIdenticalToReferenceOracle) {
  // One selector reused across every trial: a fresh arena per instance and
  // a warm arena must be indistinguishable.
  const DpSelector dp(14);
  const BranchBoundSelector bb;
  const BruteForceSelector brute(9);

  const struct {
    int m;
    double budget_s;
    double cost_per_meter;
  } grid[] = {
      {1, 600.0, 0.002},  {3, 600.0, 0.002},  {5, 600.0, 0.002},
      {7, 200.0, 0.002},  {8, 1200.0, 0.004}, {9, 900.0, 0.01},
      {11, 600.0, 0.002}, {13, 1200.0, 0.002}, {14, 1500.0, 0.002},
      {16, 900.0, 0.002},  // above the cap: pruning path
  };
  for (const auto& sc : grid) {
    Rng rng(0x5e1ec70aULL + static_cast<std::uint64_t>(sc.m));
    const int trials = sc.m >= 13 ? 8 : 25;
    for (int t = 0; t < trials; ++t) {
      const SelectionInstance inst =
          random_instance(rng, sc.m, sc.budget_s, sc.cost_per_meter, 2500.0);
      const Selection ref = reference_dp_select(inst, 14);
      expect_selection_identical(dp.select(inst), ref, "optimized vs oracle");
      EXPECT_NEAR(ref.profit(), bb.select(inst).profit(), 1e-9)
          << "m=" << sc.m << " trial=" << t;
      if (sc.m <= 9) {
        EXPECT_NEAR(ref.profit(), brute.select(inst).profit(), 1e-9)
            << "m=" << sc.m << " trial=" << t;
      }
    }
  }
}

TEST(DpEquivalence, ArenaCarriesNoStateBetweenInstances) {
  // Solving a large instance then a small one (and vice versa) out of the
  // same arena must match fresh selectors exactly.
  const DpSelector reused(14);
  Rng rng(0xa12e4aULL);
  std::vector<SelectionInstance> seq;
  for (int t = 0; t < 12; ++t) {
    const int m = static_cast<int>(rng.uniform_int(1, 14));
    seq.push_back(random_instance(rng, m, rng.uniform(200.0, 1500.0), 0.002,
                                  2500.0));
  }
  for (const auto& inst : seq) {
    const DpSelector fresh(14);
    expect_selection_identical(reused.select(inst), fresh.select(inst),
                               "reused vs fresh arena");
  }
}

// Appends copies of random candidates (same location and reward, fresh task
// ids), so equal scores and equal-profit tours tie.
void add_twins(Rng& rng, SelectionInstance& inst, int twins) {
  const auto n = static_cast<std::int64_t>(inst.candidates.size());
  for (int k = 0; k < twins && n > 0; ++k) {
    Candidate c = inst.candidates[static_cast<std::size_t>(
        rng.uniform_int(0, n - 1))];
    c.task = static_cast<TaskId>(n + k);
    inst.candidates.push_back(c);
  }
}

TEST(DpEquivalence, RandomizedReusedSelectorMatchesOracle) {
  // The arena keeps stale rows between calls, so one selector solves a
  // seeded sequence whose m rises and falls over 0-16, across budgets from
  // nothing reachable to everything reachable (free travel, no budget),
  // with co-located equal-reward twins whose profit ties pin the
  // ascending-mask tie-break.
  const DpSelector dp(16);
  Rng rng(0xd1ff5eedULL);
  int nonempty = 0;
  for (int t = 0; t < 160; ++t) {
    const int wave = t % 32 < 16 ? t % 32 : 32 - t % 32;  // 0..16..1
    const int m = std::clamp(
        wave + static_cast<int>(rng.uniform_int(-2, 2)), 0, 16);
    SelectionInstance inst;
    switch (t % 4) {
      case 0:  // nothing reachable
        inst = random_instance(rng, m, 1.0, 0.002, 2500.0);
        break;
      case 1:  // everything reachable, nothing pruned
        inst = random_instance(rng, m, kInf, 0.0, 2500.0);
        break;
      default:
        inst = random_instance(rng, m, rng.uniform(150.0, 1500.0),
                               rng.uniform(0.0005, 0.004), 2500.0);
        break;
    }
    if (m >= 2 && m < 16) {
      add_twins(rng, inst, static_cast<int>(rng.uniform_int(
                               1, std::min(4, 16 - m))));
    }
    const Selection ref = reference_dp_select(inst, 16);
    const Selection got = dp.select(inst);
    expect_selection_identical(got, ref, "reused selector vs oracle");
    if (t % 4 == 0) {
      EXPECT_TRUE(got.empty()) << "t=" << t;
    }
    if (!got.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 60);
}

TEST(DpEquivalence, AboveOracleSizeMatchesBranchAndBound) {
  // m = 17-20 at cap 20: the oracle's 2^m * m table is too large, so the
  // profit is checked against branch-and-bound and the reported economics
  // against a re-evaluation of the returned order.
  const DpSelector dp(20);
  const BranchBoundSelector bb;
  Rng rng(0xb16da7aULL);
  int nonempty = 0;
  for (int t = 0; t < 12; ++t) {
    const int m = 17 + t % 4;
    SelectionInstance inst =
        random_instance(rng, m - 1, rng.uniform(300.0, 900.0), 0.002, 2500.0);
    add_twins(rng, inst, 1);
    const Selection got = dp.select(inst);
    EXPECT_NEAR(got.profit(), bb.select(inst).profit(), 1e-9)
        << "m=" << m << " t=" << t;
    const Selection again = evaluate_order(inst, got.order);
    EXPECT_NEAR(got.distance, again.distance, 1e-9);
    EXPECT_NEAR(got.reward, again.reward, 1e-9);
    EXPECT_NEAR(got.cost, again.cost, 1e-9);
    EXPECT_TRUE(is_feasible(inst, got));
    if (!got.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 6);
}

TEST(PruneCandidatesInto, MatchesReferencePrune) {
  Rng rng(0x9871ULL);
  for (int t = 0; t < 40; ++t) {
    const int m = static_cast<int>(rng.uniform_int(1, 24));
    SelectionInstance inst =
        random_instance(rng, m, rng.uniform(100.0, 1200.0), 0.002, 2500.0);
    // Every other trial adds twins: equal scores whose stable order the
    // prune must keep.
    if (t % 2 == 1) add_twins(rng, inst, static_cast<int>(rng.uniform_int(1, 8)));
    const SelectionInstance want = reference_prune(inst, 10);
    std::vector<Candidate> kept;
    prune_candidates_into(inst, 10, kept);
    ASSERT_EQ(kept.size(), want.candidates.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i].task, want.candidates[i].task);
      EXPECT_EQ(kept[i].reward, want.candidates[i].reward);
    }
  }
}

}  // namespace
}  // namespace mcs::select
