// Repeated-trial experiment runner.
//
// The paper averages every data point over 100 random scenarios; this runner
// executes R independent repetitions (fresh world, fresh mechanism, same
// knobs) with deterministic per-repetition seeds and aggregates campaign and
// per-round metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "incentive/mechanism.h"
#include "select/selector.h"
#include "sim/faults.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace mcs::exp {

struct ExperimentConfig {
  sim::ScenarioParams scenario;
  incentive::MechanismKind mechanism = incentive::MechanismKind::kOnDemand;
  incentive::MechanismParams mech_params;
  select::SelectorKind selector = select::SelectorKind::kDp;
  int dp_candidate_cap = 14;
  sim::MobilityKind mobility = sim::MobilityKind::kStaticHome;
  Meters drift_sigma = 300.0;  // gaussian-drift mobility only
  Round max_rounds = 15;
  int repetitions = 20;
  std::uint64_t seed = 42;
  // Worker threads for the repetition fan-out: 0 = one per hardware thread,
  // 1 = run everything on the caller's thread (the serial path), n = exactly
  // n workers. Repetitions are independent seeded streams and results are
  // merged in repetition order, so every aggregate is bit-identical whatever
  // this is set to. Benches expose it as --threads / MCS_THREADS.
  int threads = 0;
  // Worker threads for each simulator's round-granularity loop when
  // `shards` is 0 (SimulatorParams::plan_threads): 1 = serial (default),
  // 0 = one per hardware thread, n = exactly n. Only round-granularity
  // mechanisms parallelize; campaigns stay bit-identical at any value.
  // Benches expose it as --plan-threads / MCS_PLAN_THREADS. Composes with
  // `threads`: total concurrency is roughly threads * plan_threads, so
  // prefer repetition fan-out when there are many repetitions and plan
  // threads when a single large campaign dominates.
  int plan_threads = 1;
  // Worker threads for each simulator's reprice phase
  // (SimulatorParams::reprice_threads): 1 = serial (default), 0 = one per
  // hardware thread, n = exactly n. The demand/level/reward sweep and a due
  // neighbor-cache rebuild's count pass shard over them; campaigns stay
  // bit-identical at any value. Benches expose it as --reprice-threads /
  // MCS_REPRICE_THREADS. Composes with `threads` like plan_threads does.
  int reprice_threads = 1;
  // Worker count of the round-granularity loop (SimulatorParams::shards):
  // 0 = take plan_threads (default), n >= 1 = n workers, -1 = auto (one
  // per hardware thread). Campaigns are bit-identical at any value.
  // Benches expose it as --shards / MCS_SHARDS ("auto" accepted).
  int shards = 0;
  // Record per-phase round timings into each campaign's metrics
  // (SimulatorParams::phase_timers). Benches expose it as --phase-timers.
  bool phase_timers = false;
  // Cross-user plan memoization (SimulatorParams::memo): provably
  // equivalent selection instances within a round share one solve.
  // Campaigns stay bit-identical with it on or off; it only pays when many
  // users share a start location and budget (dense home sites — see
  // ScenarioParams::home_sites). Benches expose it as --plan-memo /
  // MCS_PLAN_MEMO.
  bool plan_memo = false;
  // Fault injection applied to every repetition's campaign (sim/faults.h).
  // Fault draws derive from the repetition seed, so they are independent
  // across repetitions and bit-reproducible at any thread count. Benches
  // expose the rates as --dropout/--abandon/--loss/--corrupt/--withdraw.
  sim::FaultPlan faults;
  // Diagnostic/test hook, called (from the worker thread) at the start of
  // every repetition attempt: attempt 0 always, higher attempts only for
  // same-seed retries after an mcs::Error (up to max_attempts in total). A
  // throwing probe counts as a failing attempt — fault-tolerance tests use
  // it to inject repetition failures. Must be thread-safe; null (the
  // default) is skipped.
  std::function<void(int rep, int attempt)> repetition_probe;
  // Attempt budget per repetition: the initial attempt plus up to
  // max_attempts-1 same-seed retries (the historical behaviour is 2 — one
  // retry). Must be >= 1.
  int max_attempts = 2;
  // Called (from the worker thread) before every retry — attempt >= 1,
  // never for the initial attempt. Production callers sleep here;
  // deterministic tests record the (rep, attempt) pairs instead, keeping
  // wall-clock out of the suite. Must be thread-safe; null (the default)
  // retries immediately.
  std::function<void(int rep, int attempt)> retry_backoff;
  // Campaign checkpointing (sim/checkpoint.h): checkpoint_every > 0 with a
  // non-empty checkpoint_dir writes a checkpoint every k rounds into
  // <checkpoint_dir>/rep-<rep>/ and — the payoff — a repetition attempt
  // that throws RESUMES from its last good generation on retry instead of
  // rerunning the whole campaign. Resume is bit-identical to the straight
  // run (pinned by the checkpoint-resume equivalence suite), so aggregates
  // are unchanged whether a repetition crashed or not. Checkpoints carry a
  // provenance stamp of the full repetition identity (seed, scenario,
  // mechanism + params, selector, mobility, faults, max_rounds); a
  // checkpoint whose stamp does not match is never resumed, so sweeps may
  // reuse one checkpoint_dir across sweep points — each point starts fresh
  // over the previous point's leftovers. 0 (default) keeps checkpointing
  // off.
  Round checkpoint_every = 0;
  std::string checkpoint_dir;
};

struct RepetitionResult {
  sim::CampaignMetrics campaign;
  std::vector<sim::RoundMetrics> rounds;
};

/// One full campaign with an explicit seed (world generation, fixed-
/// mechanism level draws and any other randomness all derive from it).
RepetitionResult run_repetition(const ExperimentConfig& cfg,
                                std::uint64_t seed);

/// The deterministic seed of repetition `rep`: an independent SplitMix64
/// stream per repetition derived from cfg.seed. This is exactly the seed
/// run_experiment feeds to repetition `rep`, exposed so tests can assert
/// stream independence and callers can re-run a single repetition.
std::uint64_t repetition_seed(const ExperimentConfig& cfg, int rep);

/// A repetition whose campaign threw mcs::Error on every attempt (the
/// initial one plus the same-seed retries of cfg.max_attempts). Recorded
/// instead of aborting the sweep; the seed lets the failure be replayed
/// with run_repetition.
struct FailedRepetition {
  int rep = -1;
  std::uint64_t seed = 0;
  std::string error;  // what() of the last failing attempt
};

/// Aggregates over repetitions. Round series are padded to max_rounds: a
/// campaign that closed early contributes zero new measurements and its
/// final coverage/completeness to the remaining rounds. Exception: the
/// mean-reward series — a closed campaign publishes no prices, so closed
/// rounds are excluded from round_mean_reward instead of being counted as
/// zero-price rounds (each RunningStats carries its own per-round sample
/// count; count() < repetitions on rounds some campaigns never reached).
/// Failed repetitions (see failed_reps) contribute to no aggregate at all:
/// every stat's count() is the number of *successful* repetitions.
struct AggregateResult {
  RunningStats coverage;
  RunningStats completeness;
  RunningStats tasks_completed;
  RunningStats avg_measurements;
  RunningStats measurement_variance;
  RunningStats reward_per_measurement;
  RunningStats total_paid;
  RunningStats overdraft;
  RunningStats reward_gini;
  RunningStats reward_jain;
  RunningStats active_fraction;
  std::vector<RunningStats> round_new_measurements;  // index = round-1
  std::vector<RunningStats> round_coverage;
  std::vector<RunningStats> round_completeness;
  std::vector<RunningStats> round_mean_profit;
  // Mean published reward; live campaigns only (see aggregation note above).
  std::vector<RunningStats> round_mean_reward;
  // Fault-degradation accounting (campaign totals; all zero without a
  // FaultPlan): dropped worker-rounds, abandoned tours, lost uploads,
  // meters walked for nothing.
  RunningStats dropped_users;
  RunningStats abandoned_tours;
  RunningStats lost_measurements;
  RunningStats wasted_travel;
  // Repetitions that exhausted their attempt budget (see FailedRepetition),
  // in rep order.
  std::vector<FailedRepetition> failed_reps;
  // Attempts consumed per repetition (index = rep; 1 = first try
  // succeeded, cfg.max_attempts = every retry was needed — whether the
  // last one succeeded is what failed_reps records).
  std::vector<int> rep_attempts;
};

/// Runs cfg.repetitions campaigns and aggregates them. A repetition that
/// throws mcs::Error is retried with the same seed (cfg.max_attempts,
/// cfg.retry_backoff; with checkpointing enabled a retry resumes from the
/// last good checkpoint instead of rerunning from round 1); once the
/// budget is exhausted it lands in failed_reps and the sweep continues.
/// Throws only when every repetition failed (nothing to aggregate).
AggregateResult run_experiment(const ExperimentConfig& cfg);

/// Builds the incentive mechanism for one repetition; `rng` is that
/// repetition's mechanism stream. Lets ablation studies inject mechanisms
/// the MechanismKind enum does not cover (custom weights, custom level
/// counts, ...). With cfg.threads != 1 repetitions run concurrently, so the
/// factory must be safe to call from multiple threads at once (stateless
/// factories — build from the arguments, capture only immutable data — are).
using MechanismFactory =
    std::function<std::unique_ptr<incentive::IncentiveMechanism>(
        const model::World& world, Rng& rng)>;

/// run_experiment with a custom mechanism per repetition; everything else
/// (scenario, selector, aggregation, padding, seeds) is identical.
AggregateResult run_experiment_with(const ExperimentConfig& cfg,
                                    const MechanismFactory& factory);

/// Fig. 5 support: simulate up to round `at_round`-1 (with the DP selector),
/// then evaluate DP and greedy on the *identical* published instances every
/// user faces at `at_round` — a paired comparison, so DP's per-user profit
/// dominates greedy's on every sample (optimality of the DP).
struct DpVsGreedyResult {
  RunningStats dp_profit;            // per-user profit at `at_round`, DP
  RunningStats greedy_profit;        // same, greedy
  std::vector<double> differences;   // per-user dp - greedy, all reps pooled
};

DpVsGreedyResult run_dp_vs_greedy(const ExperimentConfig& cfg, Round at_round);

}  // namespace mcs::exp
