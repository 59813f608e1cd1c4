// Microbenchmarks for the platform-side per-round work: AHP weight
// extraction, demand evaluation over a full world, neighbor counting via
// the spatial grid (lazy reads and the round-start recount), the per-round
// on-demand pricing sweep, and a whole simulated round.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ahp/comparison_matrix.h"
#include "ahp/weights.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "incentive/demand.h"
#include "incentive/demand_level.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/reward.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

// Global heap instrumentation: counts every operator-new call in the
// process so the steady-state benches below can assert their hot loop is
// allocation-free (allocs_per_iter == 0). Counting only — the default
// malloc still serves the request.
std::atomic<std::uint64_t> g_new_calls{0};

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// Both deletes free through one out-of-line function. Inlined into a caller,
// a bare std::free on a pointer GCC saw come from operator new trips
// -Wmismatched-new-delete, although this operator new is malloc-backed.
[[gnu::noinline]] static void release(void* p) noexcept { std::free(p); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace mcs;

void BM_AhpRowAverage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  ahp::ComparisonMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, static_cast<double>(rng.uniform_int(1, 9)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ahp::row_average_weights(m));
  }
}

void BM_AhpEigenvector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  ahp::ComparisonMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, static_cast<double>(rng.uniform_int(1, 9)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ahp::eigenvector_weights(m));
  }
}

void BM_DemandEvaluation(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.num_users = 100;
  Rng rng(7);
  const model::World world = sim::generate_world(params, rng);
  const auto indicator = incentive::DemandIndicator::with_paper_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(indicator.normalized_demands(world, 3));
  }
}

void BM_NeighborCounts(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_users = static_cast<int>(state.range(0));
  Rng rng(7);
  const model::World world = sim::generate_world(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.neighbor_counts());
  }
}

// Steady-state on-demand repricing across rounds: after the first round
// warms the member buffers (demands, levels, rewards, neighbor cache) the
// per-round update must not touch the heap at all. The allocs_per_iter
// counter is the regression guard — it reads 0.00 when the path is clean.
void BM_UpdateRewardsSteadyState(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.num_users = 100;
  Rng rng(7);
  const model::World world = sim::generate_world(params, rng);
  // Budget scales with the task set (the stock 1000/400 = $2.5 per
  // required measurement) so Eq. 9 keeps a positive base reward at every
  // panel size.
  const incentive::RewardRule rule = incentive::RewardRule::from_budget(
      2.5 * static_cast<double>(world.total_required()),
      world.total_required(), 0.5, 5);
  incentive::OnDemandMechanism mech(
      incentive::DemandIndicator::with_paper_defaults(),
      incentive::DemandLevelScale(5), rule);
  mech.update_rewards(world, 1);  // warm every buffer
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  std::uint64_t iters = 0;
  for (auto _ : state) {
    mech.update_rewards(world, 2);
    benchmark::DoNotOptimize(mech.rewards().data());
    ++iters;
  }
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  state.counters["allocs_per_iter"] = iters == 0
                                          ? 0.0
                                          : static_cast<double>(after - before) /
                                                static_cast<double>(iters);
}

// The round-start neighbor recount: every user moved since the last
// refresh (as after a round of tours), so refresh_neighbor_cache() takes
// the recount side of its cost model at 1 and at 4 workers. The counters
// are the regression gate tier1.sh greps: allocs_per_iter must read 0.00
// once warm (the user grid is rebuilt in place, the count pass fans out
// without heap traffic), and recounts_per_iter 1.00 proves the recount —
// not the delta sync — is what ran.
void BM_NeighborRecountSteadyState(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  sim::ScenarioParams params;
  params.area_side = 6000.0;
  params.num_tasks = 2000;
  params.num_users = 20000;
  params.neighbor_radius = 150.0;
  Rng rng(7);
  model::World world = sim::generate_world(params, rng);
  ThreadPool pool(workers);
  std::vector<geo::Point>& loc = world.user_store_mut().location;
  double shift = 1.0;
  const auto move_everyone = [&] {
    shift = -shift;
    for (geo::Point& p : loc) p.x += shift;
  };
  world.refresh_neighbor_cache(&pool, workers);  // first use: full rebuild
  move_everyone();
  world.refresh_neighbor_cache(&pool, workers);  // warm the recount path
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  const std::uint64_t recounts_before = world.neighbor_recounts();
  std::uint64_t iters = 0;
  for (auto _ : state) {
    move_everyone();
    world.refresh_neighbor_cache(&pool, workers);
    ++iters;
  }
  const std::uint64_t recounts = world.neighbor_recounts() - recounts_before;
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  state.counters["allocs_per_iter"] =
      iters == 0 ? 0.0
                 : static_cast<double>(after - before) /
                       static_cast<double>(iters);
  state.counters["recounts_per_iter"] =
      iters == 0 ? 0.0
                 : static_cast<double>(recounts) / static_cast<double>(iters);
}

void BM_FullRound(benchmark::State& state) {
  sim::ScenarioParams params;
  params.num_users = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    model::World world = sim::generate_world(params, rng);
    Rng mech_rng(1);
    auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                          world, {}, mech_rng);
    auto sel = select::make_selector(select::SelectorKind::kDp);
    sim::Simulator s(std::move(world), std::move(mech), std::move(sel), {});
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.step());
  }
}

}  // namespace

BENCHMARK(BM_AhpRowAverage)->Arg(3)->Arg(8)->Arg(15);
BENCHMARK(BM_AhpEigenvector)->Arg(3)->Arg(8)->Arg(15);
BENCHMARK(BM_DemandEvaluation)->Arg(20)->Arg(100)->Arg(500);
BENCHMARK(BM_NeighborCounts)->Arg(40)->Arg(140)->Arg(1000);
BENCHMARK(BM_UpdateRewardsSteadyState)->Arg(20)->Arg(100)->Arg(500);
BENCHMARK(BM_NeighborRecountSteadyState)->Arg(1)->Arg(4)->UseRealTime();
BENCHMARK(BM_FullRound)->Arg(40)->Arg(100)->Arg(140);
