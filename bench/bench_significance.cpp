// Statistical confirmation of the headline comparisons.
//
// The paper plots means over 100 runs but never reports variability. This
// bench replays the key pairwise comparisons (on-demand vs each baseline,
// for the metrics of Figs. 7-9) across R independent scenarios and reports
// Welch's t and Mann-Whitney U p-values, so "on-demand wins" comes with an
// uncertainty statement.
#include <iostream>
#include <vector>

#include "common/config.h"
#include "common/csv.h"
#include "common/significance.h"
#include "common/strings.h"
#include "exp/figures.h"

namespace {

using namespace mcs;

struct MetricRow {
  const char* label;
  double sim::CampaignMetrics::* field;
  bool higher_is_better;
};

}  // namespace

int main(int argc, char** argv) {
  const Config flags = Config::from_args(argc, argv);
  exp::ExperimentConfig base = exp::experiment_from_config(flags);
  exp::print_experiment_header(base,
                               "Significance of the mechanism comparisons");

  // Collect per-repetition campaign metrics for every mechanism on shared
  // scenario seeds (paired designs reduce variance, but we report the
  // unpaired tests the way an external replication would).
  const std::vector<MetricRow> metrics = {
      {"completeness %", &sim::CampaignMetrics::completeness_pct, true},
      {"avg measurements", &sim::CampaignMetrics::avg_measurements, true},
      {"meas. variance", &sim::CampaignMetrics::measurement_variance, false},
      {"$ / measurement", &sim::CampaignMetrics::avg_reward_per_measurement,
       false},
  };

  std::vector<incentive::MechanismKind> mechs = exp::all_mechanisms();
  std::vector<std::vector<sim::CampaignMetrics>> runs(mechs.size());
  for (std::size_t mi = 0; mi < mechs.size(); ++mi) {
    exp::ExperimentConfig cfg = base;
    cfg.mechanism = mechs[mi];
    for (int rep = 0; rep < cfg.repetitions; ++rep) {
      // One campaign per (mechanism, rep); seeds match across mechanisms.
      exp::ExperimentConfig one = cfg;
      one.repetitions = 1;
      one.seed = cfg.seed + static_cast<std::uint64_t>(rep) * 1013904223ULL;
      runs[mi].push_back(exp::run_repetition(one, one.seed).campaign);
    }
  }

  TextTable table({"metric", "baseline", "on-demand mean", "baseline mean",
                   "welch t", "p (welch)", "p (mann-whitney)", "verdict"});
  for (const MetricRow& m : metrics) {
    std::vector<double> on_demand;
    for (const auto& c : runs[0]) on_demand.push_back(c.*(m.field));
    for (std::size_t mi = 1; mi < mechs.size(); ++mi) {
      std::vector<double> baseline;
      for (const auto& c : runs[mi]) baseline.push_back(c.*(m.field));
      const TestResult welch = welch_t_test(on_demand, baseline);
      const TestResult mw = mann_whitney_u(on_demand, baseline);
      const bool wins = m.higher_is_better ? welch.effect > 0 : welch.effect < 0;
      const char* verdict = welch.p_value < 0.01
                                ? (wins ? "on-demand wins (p<0.01)"
                                        : "baseline wins (p<0.01)")
                                : "no significant difference";
      table.add_row({m.label, incentive::mechanism_name(mechs[mi]),
                     format_fixed(mean_of(on_demand), 3),
                     format_fixed(mean_of(baseline), 3),
                     format_fixed(welch.statistic, 2),
                     format_fixed(welch.p_value, 5),
                     format_fixed(mw.p_value, 5), verdict});
    }
  }
  table.print(std::cout);
  exp::maybe_dump_csv(flags, "significance", table);
  exp::warn_unconsumed(flags);
  return 0;
}
