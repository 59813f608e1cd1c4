// Microbenchmarks for the §V complexity claims: the DP solver is
// O(m^2 * 2^m) in the worst case, greedy is O(m^2), and both exact solvers
// (DP, branch-and-bound) cost what their pruning leaves to explore.
//
// Methodology: every size m is measured over a fixed panel of
// kInstancesPerSize seeded instances (the seed depends only on m and the
// panel slot), and one benchmark iteration solves the whole panel. A single
// unseeded draw per size made the series non-monotone — one lucky m=16
// instance whose budget pruned most subsets measured faster than m=14 —
// which the per-size averaging removes. `items_per_second` reports
// single-instance throughput.
//
// BM_DpSelector reuses one selector across iterations (the production
// shape: a simulator keeps its selector for the whole campaign, so the DP
// scratch arena is warm). BM_DpSelectorColdArena constructs a fresh
// selector per panel solve and therefore pays the arena allocation each
// time; the gap between the two is the allocation cost the arena removes.
//
// The DP's work is proportional to the states it reaches, so on these
// budget-limited panels its series flattens well below the O(m^2 * 2^m)
// bound. BM_DpSelectorUnpruned measures the regime that bound describes:
// zero travel cost and an unlimited budget, so neither the budget nor the
// admissible prune stops anything and every state is reached.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "select/branch_bound_selector.h"
#include "select/dp_selector.h"
#include "select/greedy_selector.h"
#include "select/instance.h"

namespace {

using namespace mcs;

constexpr int kInstancesPerSize = 5;

select::SelectionInstance make_instance(int m, std::uint64_t seed) {
  Rng rng(seed);
  select::SelectionInstance inst;
  inst.start = {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)};
  inst.travel = {};
  inst.time_budget = 1200.0;  // 2400 m of walking
  for (int i = 0; i < m; ++i) {
    inst.candidates.push_back({static_cast<TaskId>(i),
                               {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)},
                               rng.uniform(0.5, 2.5)});
  }
  return inst;
}

std::vector<select::SelectionInstance> make_panel(int m) {
  std::vector<select::SelectionInstance> panel;
  panel.reserve(kInstancesPerSize);
  for (int r = 0; r < kInstancesPerSize; ++r) {
    panel.push_back(make_instance(
        m, 0xabcd0000ULL + 257ULL * static_cast<std::uint64_t>(m) +
               static_cast<std::uint64_t>(r)));
  }
  return panel;
}

// The same panel with free travel and no budget: every state is reached.
std::vector<select::SelectionInstance> make_unpruned_panel(int m) {
  auto panel = make_panel(m);
  for (auto& inst : panel) {
    inst.travel.cost_per_meter = 0.0;
    inst.time_budget = kInf;
  }
  return panel;
}

template <typename Selector>
void solve_panel(const Selector& s,
                 const std::vector<select::SelectionInstance>& panel) {
  for (const auto& inst : panel) {
    benchmark::DoNotOptimize(s.select(inst));
  }
}

void BM_DpSelector(benchmark::State& state) {
  const auto panel = make_panel(static_cast<int>(state.range(0)));
  const select::DpSelector dp(/*candidate_cap=*/20);
  for (auto _ : state) {
    solve_panel(dp, panel);
  }
  state.SetItemsProcessed(state.iterations() * kInstancesPerSize);
  state.SetComplexityN(state.range(0));
}

void BM_DpSelectorColdArena(benchmark::State& state) {
  const auto panel = make_panel(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const select::DpSelector dp(/*candidate_cap=*/20);
    solve_panel(dp, panel);
  }
  state.SetItemsProcessed(state.iterations() * kInstancesPerSize);
  state.SetComplexityN(state.range(0));
}

void BM_DpSelectorUnpruned(benchmark::State& state) {
  const auto panel = make_unpruned_panel(static_cast<int>(state.range(0)));
  const select::DpSelector dp(/*candidate_cap=*/20);
  for (auto _ : state) {
    solve_panel(dp, panel);
  }
  state.SetItemsProcessed(state.iterations() * kInstancesPerSize);
  state.SetComplexityN(state.range(0));
}

void BM_GreedySelector(benchmark::State& state) {
  const auto panel = make_panel(static_cast<int>(state.range(0)));
  const select::GreedySelector greedy;
  for (auto _ : state) {
    solve_panel(greedy, panel);
  }
  state.SetItemsProcessed(state.iterations() * kInstancesPerSize);
  state.SetComplexityN(state.range(0));
}

void BM_BranchBoundSelector(benchmark::State& state) {
  const auto panel = make_panel(static_cast<int>(state.range(0)));
  const select::BranchBoundSelector bb;
  for (auto _ : state) {
    solve_panel(bb, panel);
  }
  state.SetItemsProcessed(state.iterations() * kInstancesPerSize);
  state.SetComplexityN(state.range(0));
}

}  // namespace

BENCHMARK(BM_DpSelector)->DenseRange(4, 18, 2);
BENCHMARK(BM_DpSelectorColdArena)->Arg(14)->Arg(18);
BENCHMARK(BM_DpSelectorUnpruned)->Arg(10)->Arg(14)->Arg(18);
BENCHMARK(BM_GreedySelector)->DenseRange(4, 18, 2)->Arg(64)->Arg(256);
BENCHMARK(BM_BranchBoundSelector)->DenseRange(4, 18, 2);
