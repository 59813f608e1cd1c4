// Campaign construction, result digests and paper invariants shared by the
// three benchmark workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "sim/simulator.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The only place the benchmark sets the simulator's worker knobs. The
/// simulator still has three (plan_threads, shards, reprice_threads) and
/// two round loops; `sharded` = false keeps the legacy planned loop that
/// paper_sweep measures. When the knobs collapse into one worker count,
/// this function is the one to change.
void set_sim_workers(mcs::exp::ExperimentConfig& cfg, int workers,
                     bool sharded);

/// Wall-clock parts of one campaign's set-up; setup_s is their total.
struct SetupTimes {
  double world_gen_s = 0.0;   // sim::generate_world
  double construct_s = 0.0;   // incentive::make_mechanism (AHP weights)
  double selector_s = 0.0;    // select::make_selector
  double simulator_s = 0.0;   // sim::Simulator constructor

  double total() const {
    return world_gen_s + construct_s + selector_s + simulator_s;
  }
  SetupTimes& operator+=(const SetupTimes& o);
};

/// Builds repetition `seed` of `cfg` exactly as exp::run_repetition does
/// (the self-test pins the digests equal), timing each part into `times`.
/// With a tracer, the mechanism and the selector are wrapped in its
/// forwarding layers and the simulator records phase timers.
std::unique_ptr<mcs::sim::Simulator> build_campaign(
    const mcs::exp::ExperimentConfig& cfg, std::uint64_t seed,
    SetupTimes* times, Tracer* tracer = nullptr);

/// Steps `sim` to the end of its campaign as Simulator::run() does,
/// appending each step()'s wall time to `round_walls`. Returns the wall
/// time of the whole loop.
double run_campaign(mcs::sim::Simulator& sim, mcs::Round max_rounds,
                    std::vector<double>* round_walls);

/// FNV-1a digest of a campaign's results: per-task received counts, the
/// bits of total_paid, the measurement and fault totals, the plan-memo
/// counts and the number of rounds run.
std::uint64_t campaign_digest(const mcs::sim::CampaignMetrics& m,
                              std::size_t rounds);

/// Digest of every statistic of a run_experiment aggregate (count, mean,
/// variance, min and max bits of each RunningStats, campaign and per-round)
/// plus the failed repetitions.
std::uint64_t aggregate_digest(const mcs::exp::AggregateResult& a);

/// Order-dependent combination of digests.
std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t digest);
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

std::string hex_digest(std::uint64_t digest);

/// Empty when the campaign satisfies the paper guarantees, otherwise the
/// first violation: Eq. 8 (payout <= B within the BudgetTracker tolerance,
/// zero overdraft), Table III (every on-demand round's mean open reward in
/// [r0, r0 + lambda(N-1)]) and coverage/completeness in [0, 100].
std::string check_campaign(const mcs::exp::ExperimentConfig& cfg,
                           const mcs::sim::CampaignMetrics& m,
                           const std::vector<mcs::sim::RoundMetrics>& rounds);

/// The same guarantees over a run_experiment aggregate, through each
/// statistic's min and max, so every campaign of the sweep is covered.
std::string check_aggregate(const mcs::exp::ExperimentConfig& cfg,
                            const mcs::exp::AggregateResult& a);

}  // namespace perfbench
