// Shared plumbing for the per-figure benchmark binaries: flag parsing into
// an ExperimentConfig, user-count sweeps across mechanisms, and table
// rendering that mirrors the series of the paper's figures.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/csv.h"
#include "exp/runner.h"

namespace mcs::exp {

/// Read every experiment knob from --key=value flags (all optional; defaults
/// are the paper's §VI values). Recognized keys include: users, tasks,
/// area, required, deadline-min/max, budget, lambda, levels, radius,
/// user-budget-min/max, speed, cost-per-meter, mechanism, selector, dp-cap,
/// rounds, reps, seed, threads (0 = one worker per hardware thread; the
/// MCS_THREADS environment variable supplies the default when the flag is
/// absent — results are bit-identical whatever the value), plan-threads
/// (per-simulator planning workers, default 1/MCS_PLAN_THREADS; likewise
/// bit-identical at any value), and the
/// fault-injection rates dropout, abandon, loss, corrupt, withdraw,
/// fault-seed (see sim/faults.h; all default to zero faults).
ExperimentConfig experiment_from_config(const Config& cfg);

/// The "users 40..140 step 20" x-axis of Figs. 6–9, overridable with
/// --users-from/--users-to/--users-step.
std::vector<int> user_counts_from_config(const Config& cfg);

/// All three mechanisms, in the paper's plotting order.
std::vector<incentive::MechanismKind> all_mechanisms();

/// Result grid of a user-count sweep: result(mechanism index, user index).
class UserSweep {
 public:
  UserSweep(ExperimentConfig base, std::vector<int> user_counts,
            std::vector<incentive::MechanismKind> mechanisms);

  /// Runs every (mechanism, user-count) cell. Deterministic: the same
  /// repetition seeds (hence the same worlds) are used in every column.
  void run();

  const std::vector<int>& user_counts() const { return user_counts_; }
  const std::vector<incentive::MechanismKind>& mechanisms() const {
    return mechanisms_;
  }
  const AggregateResult& result(std::size_t mech, std::size_t user_idx) const;

  /// Render one metric as a table: rows = user counts, one column per
  /// mechanism.
  TextTable table(
      const std::function<double(const AggregateResult&)>& metric,
      const std::string& x_label = "users", int decimals = 2) const;

 private:
  ExperimentConfig base_;
  std::vector<int> user_counts_;
  std::vector<incentive::MechanismKind> mechanisms_;
  std::vector<std::vector<AggregateResult>> results_;  // [mech][user]
  bool ran_ = false;
};

/// Round-series comparison at a fixed user count (Figs. 6b/7b/8b): rows =
/// rounds 1..max_rounds, one column per mechanism.
class RoundSeries {
 public:
  RoundSeries(ExperimentConfig base,
              std::vector<incentive::MechanismKind> mechanisms);

  void run();

  const AggregateResult& result(std::size_t mech) const;

  /// metric(agg, round_index) -> value plotted for that round.
  TextTable table(const std::function<double(const AggregateResult&,
                                             std::size_t)>& metric,
                  Round first_round = 1, int decimals = 2) const;

 private:
  ExperimentConfig base_;
  std::vector<incentive::MechanismKind> mechanisms_;
  std::vector<AggregateResult> results_;
  bool ran_ = false;
};

/// Echo the effective experiment setup (one line per knob) so recorded bench
/// output is self-describing.
void print_experiment_header(const ExperimentConfig& cfg,
                             const std::string& title);

/// Warn on unknown flags (typos) after a bench finished reading its config.
void warn_unconsumed(const Config& cfg);

/// When the user passed --csv-dir=<dir>, write `table` to <dir>/<name>.csv
/// (the directory must exist). No-op otherwise.
void maybe_dump_csv(const Config& cfg, const std::string& name,
                    const TextTable& table);

}  // namespace mcs::exp
