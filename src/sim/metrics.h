// The metrics used throughout §VI of the paper.
//
//  * coverage           — % of tasks with at least one measurement (spatial
//                         popularity balance, Fig. 6)
//  * overall completeness — % of required measurements delivered in time:
//                         100 * sum_i min(pi_i, phi_i) / sum_i phi_i (Fig. 7)
//  * tasks completed    — % of tasks that reached phi_i before the deadline
//  * avg measurement    — mean received count per task (capped at phi_i,
//                         Fig. 8a)
//  * variance of measurements — population variance of per-task received
//                         counts (participation balance, Fig. 9a)
//  * avg reward per measurement — total payout / total measurements (platform
//                         welfare proxy, Fig. 9b)
#pragma once

#include <vector>

#include "common/types.h"
#include "model/world.h"

namespace mcs::sim {

/// Snapshot of one finished round.
struct RoundMetrics {
  Round round = 0;
  int new_measurements = 0;         // delivered during this round
  long long total_measurements = 0; // cumulative
  double coverage_pct = 0.0;
  double completeness_pct = 0.0;
  Money payout = 0.0;               // paid during this round
  int active_users = 0;             // users who performed >= 1 task
  std::vector<Money> user_profit;   // profit of every user this round
  Money mean_user_profit = 0.0;
  // Mean reward actually published to this round's users: the round-start
  // price over open tasks for round-granularity mechanisms; for mechanisms
  // that reprice within the round (updates_within_round()), the mean of the
  // per-session published prices averaged over the round's user sessions.
  // 0 when nothing is open. Feeds the reward-dynamics diagnostic bench.
  Money mean_open_reward = 0.0;
  int open_tasks = 0;
  // Fault-injection accounting (all zero without a FaultPlan; see
  // sim/faults.h). Lost uploads do not advance task progress, so the demand
  // indicator re-inflates demand for under-delivered tasks — these counters
  // measure that degradation story.
  int dropped_users = 0;           // workers offline this round
  int abandoned_tours = 0;         // tours cut short mid-way
  int lost_measurements = 0;       // uploads that never reached the platform
  int corrupted_measurements = 0;  // accepted but noise-corrupted readings
  int withdrawn_tasks = 0;         // open tasks glitched out of this round
  Meters wasted_travel = 0.0;      // meters walked for lost uploads
};

/// End-of-campaign summary.
struct CampaignMetrics {
  double coverage_pct = 0.0;
  double completeness_pct = 0.0;
  double tasks_completed_pct = 0.0;
  double avg_measurements = 0.0;        // capped per-task mean
  double measurement_variance = 0.0;    // population variance (uncapped)
  Money total_paid = 0.0;
  long long total_measurements = 0;
  Money avg_reward_per_measurement = 0.0;
  Money budget_overdraft = 0.0;
  std::vector<int> per_task_received;   // final counts, one per task
  // User-side fairness (see sim/fairness.h).
  double reward_gini = 0.0;
  double reward_jain = 1.0;
  double active_user_fraction = 0.0;
  // Campaign totals of the per-round fault counters (summed over history by
  // Simulator::summary(); all zero without a FaultPlan).
  int dropped_user_rounds = 0;
  int abandoned_tours = 0;
  long long lost_measurements = 0;
  long long corrupted_measurements = 0;
  int withdrawn_task_rounds = 0;
  Meters wasted_travel = 0.0;
  // Plan-memo accounting (select/plan_memo.h; all zero unless
  // SimulatorParams::memo.enabled). Misses include the fallbacks; the hit
  // rate is (exact + fixup) / (exact + fixup + misses).
  long long plan_exact_hits = 0;
  long long plan_fixup_hits = 0;
  long long plan_misses = 0;
  long long plan_fallbacks = 0;
  // Cumulative wall-clock seconds per round phase, populated only when
  // SimulatorParams::phase_timers is set (all zero otherwise). Pre-pass
  // covers mobility/dropout and the cell bucketing, plan the visit-order
  // shuffle and the selection solves, reprice the round-start publish
  // (reward updates, open-task scan, round task index) and the
  // per-session reprices, commit the walk/merge/apply delivery pipeline.
  // Untimed glue (pool build, metrics) is excluded. The counters
  // are carried through checkpoints, so a resumed campaign's summary
  // reports whole-campaign times (wall clock, not comparable across
  // machines — a diagnostic, not a metric).
  double phase_prepass_s = 0.0;
  double phase_plan_s = 0.0;
  double phase_reprice_s = 0.0;
  double phase_commit_s = 0.0;
};

double coverage_pct(const model::World& world);
double completeness_pct(const model::World& world);
double tasks_completed_pct(const model::World& world);
double avg_measurements_capped(const model::World& world);
double measurement_variance(const model::World& world);

/// Full summary from the final world state; `total_paid` and `overdraft`
/// come from the simulator's budget tracker.
CampaignMetrics summarize(const model::World& world, Money total_paid,
                          Money overdraft);

}  // namespace mcs::sim
