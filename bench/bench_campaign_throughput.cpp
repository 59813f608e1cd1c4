// End-to-end campaign throughput: how many full simulated campaigns per
// second the engine sustains, per selector. Unlike bench_selector_scaling
// (isolated solver calls on synthetic instances) this drives the whole
// per-round pipeline — mechanism repricing, the per-user candidate gather
// from the round's task grid, selection, tour execution, metrics — exactly
// as experiments do, so it is the number that predicts sweep wall-clock.
//
// Methodology: each benchmark iteration runs a fixed panel of
// kCampaignsPerIter campaigns whose seeds depend only on the panel slot, so
// the workload is identical across iterations, builds and branches.
// `items_per_second` is campaigns/s; the `user_rounds` counter is the rate
// of user-round sessions (one potential selection call each), the natural
// unit for comparing scenarios of different size.
//
// BM_CampaignThreaded measures the parallel runner fan-out (threads = one
// per hardware thread) on the same workload; its aggregates are
// bit-identical to the serial ones by construction, so the ratio to
// BM_Campaign is pure scheduling overhead vs. speedup.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>

#include "exp/runner.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace mcs;

constexpr int kCampaignsPerIter = 3;

exp::ExperimentConfig make_config(select::SelectorKind kind, int num_users) {
  exp::ExperimentConfig cfg;
  cfg.selector = kind;
  cfg.scenario.num_users = num_users;
  cfg.scenario.num_tasks = 20;
  cfg.max_rounds = 15;
  return cfg;
}

// One campaign per panel slot; seeds are fixed so every iteration replays
// the same worlds.
void run_panel(const exp::ExperimentConfig& cfg, benchmark::State& state,
               std::int64_t* user_rounds) {
  for (int r = 0; r < kCampaignsPerIter; ++r) {
    const std::uint64_t seed =
        0xca3917a1ULL + 977ULL * static_cast<std::uint64_t>(r);
    const exp::RepetitionResult rep = exp::run_repetition(cfg, seed);
    benchmark::DoNotOptimize(rep.campaign.total_paid);
    *user_rounds += static_cast<std::int64_t>(rep.rounds.size()) *
                    cfg.scenario.num_users;
  }
  (void)state;
}

void BM_Campaign(benchmark::State& state, select::SelectorKind kind) {
  const exp::ExperimentConfig cfg =
      make_config(kind, static_cast<int>(state.range(0)));
  std::int64_t user_rounds = 0;
  for (auto _ : state) {
    run_panel(cfg, state, &user_rounds);
  }
  state.SetItemsProcessed(state.iterations() * kCampaignsPerIter);
  state.counters["user_rounds"] = benchmark::Counter(
      static_cast<double>(user_rounds), benchmark::Counter::kIsRate);
}

// Intra-campaign plan-thread scaling: ONE campaign per iteration (a single
// repetition, the shape where repetition fan-out cannot help) at user
// counts 100 / 1k / 10k, with the round loop (pre-pass, planning, commit
// walk) running on state.range(1) plan_threads workers. plan_threads = 1 is
// the serial baseline; the campaign is bit-identical across thread counts,
// so the ratio between the two series is pure round-loop speedup. Single repetition by design —
// this is the results/BENCH_campaign.json scaling artifact.
void BM_CampaignPlanThreads(benchmark::State& state) {
  exp::ExperimentConfig cfg = make_config(select::SelectorKind::kDp,
                                          static_cast<int>(state.range(0)));
  cfg.plan_threads = static_cast<int>(state.range(1));
  std::int64_t user_rounds = 0;
  for (auto _ : state) {
    const exp::RepetitionResult rep = exp::run_repetition(cfg, 0xca3917a1ULL);
    benchmark::DoNotOptimize(rep.campaign.total_paid);
    user_rounds += static_cast<std::int64_t>(rep.rounds.size()) *
                   cfg.scenario.num_users;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["user_rounds"] = benchmark::Counter(
      static_cast<double>(user_rounds), benchmark::Counter::kIsRate);
}

// Cross-user plan memoization on the dense-POI workload it exists for:
// users homed at a few shared sites with bucketized budgets, so most
// selection instances within a round are bit-equal. range(0) = users,
// range(1) = memo off/on; the campaign is bit-identical either way (pinned
// by the PlanMemoEquivalence suite), so the off→on items_per_second ratio
// is pure memoization speedup. The hit_rate counter is the fraction of
// planned sessions served from the table; this pairing is the
// results/BENCH_campaign.json memo artifact.
void BM_CampaignMemo(benchmark::State& state) {
  exp::ExperimentConfig cfg = make_config(select::SelectorKind::kDp,
                                          static_cast<int>(state.range(0)));
  cfg.scenario.home_sites = 64;
  cfg.scenario.user_budget_quantum_s = 150.0;
  // Dense cell: the same task set packed into a quarter of the stock area,
  // so each user reaches ~half the open set and the per-user DP is real
  // work — the regime where sharing solves pays.
  cfg.scenario.area_side = 1500.0;
  cfg.plan_memo = state.range(1) != 0;
  std::int64_t user_rounds = 0;
  double hit_rate = 0.0;
  for (auto _ : state) {
    const exp::RepetitionResult rep = exp::run_repetition(cfg, 0xca3917a1ULL);
    benchmark::DoNotOptimize(rep.campaign.total_paid);
    user_rounds += static_cast<std::int64_t>(rep.rounds.size()) *
                   cfg.scenario.num_users;
    const double hits = static_cast<double>(rep.campaign.plan_exact_hits +
                                            rep.campaign.plan_fixup_hits);
    const double lookups =
        hits + static_cast<double>(rep.campaign.plan_misses);
    hit_rate = lookups > 0.0 ? hits / lookups : 0.0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["user_rounds"] = benchmark::Counter(
      static_cast<double>(user_rounds), benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = hit_rate;
}

// Process-wide peak resident set in MB (getrusage ru_maxrss; kilobytes on
// Linux). A high-water mark, so it only ever grows across benchmarks — the
// meaningful reading is from the large-world runs, which dwarf everything
// before them.
double max_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
#endif
  return 0.0;
}

// Large-world campaigns through the round loop: ONE campaign per iteration
// at range(0) users (tasks and area scale with the population, keeping ~50
// tasks in reach per user), shards = range(1) workers (0 = take
// plan_threads, here 1). The campaign is bit-identical across shard counts
// (pinned by ShardEquivalence), so the series is pure round-loop scaling. Greedy selector: at this scale the per-user solve should be
// cheap so the round *loop* — pre-pass, demand, candidate gather, commit —
// is what's measured. Phase timers are on; the per-phase wall-clock totals
// and the process peak RSS ride along as counters. This is the
// results/BENCH_campaign.json large-world artifact.
void BM_CampaignSharded(benchmark::State& state) {
  const int users = static_cast<int>(state.range(0));
  exp::ExperimentConfig cfg;
  cfg.selector = select::SelectorKind::kGreedy;
  cfg.scenario.num_users = users;
  cfg.scenario.num_tasks = users / 10;
  // Density-preserving area: 100k users on a 30 km side, 1M on ~95 km.
  cfg.scenario.area_side = 30000.0 * std::sqrt(users / 100000.0);
  // Budget-per-measurement held constant (Eq. 9: r0 = B/sum(phi) -
  // lambda(N-1) = 1.0), so repricing behaves the same at every scale.
  cfg.mech_params.platform_budget =
      3.0 * 20.0 * static_cast<double>(cfg.scenario.num_tasks);
  cfg.max_rounds = 3;
  cfg.shards = static_cast<int>(state.range(1));
  cfg.phase_timers = true;
  std::int64_t user_rounds = 0;
  sim::CampaignMetrics last{};
  for (auto _ : state) {
    const exp::RepetitionResult rep = exp::run_repetition(cfg, 0xca3917a1ULL);
    benchmark::DoNotOptimize(rep.campaign.total_paid);
    user_rounds += static_cast<std::int64_t>(rep.rounds.size()) *
                   cfg.scenario.num_users;
    last = rep.campaign;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["user_rounds"] = benchmark::Counter(
      static_cast<double>(user_rounds), benchmark::Counter::kIsRate);
  state.counters["phase_prepass_s"] = last.phase_prepass_s;
  state.counters["phase_plan_s"] = last.phase_plan_s;
  state.counters["phase_reprice_s"] = last.phase_reprice_s;
  state.counters["phase_commit_s"] = last.phase_commit_s;
  state.counters["max_rss_mb"] = max_rss_mb();
}

// Reprice-phase A/B on the large-world workload: range(0) users,
// shards fixed at 1 so nothing else contends for the pool, range(1) picks
// the reprice path (0 = serial sweep, the default; 1 = reprice_threads=0,
// i.e. one worker per hardware thread). The campaign is bit-identical
// between the two (pinned by RepriceEquivalence), so the phase_reprice_s
// delta between the series is exactly the sharded-sweep win. One campaign
// per iteration for the same reason as BM_CampaignSharded. This is the
// results/BENCH_campaign.json reprice_phase artifact.
void BM_CampaignReprice(benchmark::State& state) {
  const int users = static_cast<int>(state.range(0));
  exp::ExperimentConfig cfg;
  cfg.selector = select::SelectorKind::kGreedy;
  cfg.scenario.num_users = users;
  cfg.scenario.num_tasks = users / 10;
  cfg.scenario.area_side = 30000.0 * std::sqrt(users / 100000.0);
  cfg.mech_params.platform_budget =
      3.0 * 20.0 * static_cast<double>(cfg.scenario.num_tasks);
  cfg.max_rounds = 3;
  cfg.shards = 1;
  cfg.phase_timers = true;
  cfg.reprice_threads = state.range(1) != 0 ? 0 : 1;
  std::int64_t user_rounds = 0;
  sim::CampaignMetrics last{};
  for (auto _ : state) {
    const exp::RepetitionResult rep = exp::run_repetition(cfg, 0xca3917a1ULL);
    benchmark::DoNotOptimize(rep.campaign.total_paid);
    user_rounds += static_cast<std::int64_t>(rep.rounds.size()) *
                   cfg.scenario.num_users;
    last = rep.campaign;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["user_rounds"] = benchmark::Counter(
      static_cast<double>(user_rounds), benchmark::Counter::kIsRate);
  state.counters["phase_prepass_s"] = last.phase_prepass_s;
  state.counters["phase_plan_s"] = last.phase_plan_s;
  state.counters["phase_reprice_s"] = last.phase_reprice_s;
  state.counters["phase_commit_s"] = last.phase_commit_s;
  state.counters["max_rss_mb"] = max_rss_mb();
}

void BM_CampaignThreaded(benchmark::State& state, select::SelectorKind kind) {
  exp::ExperimentConfig cfg =
      make_config(kind, static_cast<int>(state.range(0)));
  cfg.repetitions = 8;
  cfg.threads = 0;  // one worker per hardware thread
  for (auto _ : state) {
    const exp::AggregateResult agg = exp::run_experiment(cfg);
    benchmark::DoNotOptimize(agg.total_paid.mean());
  }
  state.SetItemsProcessed(state.iterations() * cfg.repetitions);
}

}  // namespace

// The gated families run 3 repetitions; scripts/bench_gate.py keeps the
// best repetition per series (min cpu_time / max items_per_second), so one
// scheduler hiccup on bench day cannot fail the gate or get enshrined as
// the new baseline.
BENCHMARK_CAPTURE(BM_Campaign, dp, mcs::select::SelectorKind::kDp)
    ->Arg(50)
    ->Arg(100)
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Campaign, greedy, mcs::select::SelectorKind::kGreedy)
    ->Arg(50)
    ->Arg(100)
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Campaign, branch_bound,
                  mcs::select::SelectorKind::kBranchBound)
    ->Arg(100)
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignThreaded, dp, mcs::select::SelectorKind::kDp)
    ->Arg(100)
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignPlanThreads)
    ->ArgsProduct({{100, 1000, 10000}, {1, 8}})
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignMemo)
    ->ArgsProduct({{1000, 10000}, {0, 1}})
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);
// Shard sweep at 100k users; the 1M-user / 100k-task configs are pinned to
// a single iteration (one campaign is minutes of work — min_time-driven
// repetition would make bench day unbounded).
BENCHMARK(BM_CampaignSharded)
    ->ArgsProduct({{100000}, {0, 1, 2, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
// 1M users / 100k tasks: these configs size the bucketed pre-pass,
// per-cell planning and buffered commit at the scale they were built for;
// shards = 0 (one worker through plan_threads) is covered at 100k above.
BENCHMARK(BM_CampaignSharded)
    ->ArgsProduct({{1000000}, {1, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
// Reprice A/B: serial (0) vs auto-threaded (1) at 100k and 1M users. The
// 100k pair takes 3 single-iteration repetitions (the gate keeps the best),
// the 1M pair one, like the other large-world runs; phase_reprice_s, not
// the total wall time, is the artifact.
BENCHMARK(BM_CampaignReprice)
    ->ArgsProduct({{100000}, {0, 1}})
    ->Iterations(1)
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignReprice)
    ->ArgsProduct({{1000000}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
