#include "campaign.h"

#include <bit>
#include <cstdio>
#include <utility>

#include "sim/mobility.h"
#include "sim/scenario.h"
#include "trace.h"

namespace perfbench {

namespace exp = mcs::exp;
namespace sim = mcs::sim;

void set_sim_workers(exp::ExperimentConfig& cfg, int workers, bool sharded) {
  cfg.plan_threads = workers;
  cfg.reprice_threads = workers;
  cfg.shards = sharded ? workers : 0;
}

SetupTimes& SetupTimes::operator+=(const SetupTimes& o) {
  world_gen_s += o.world_gen_s;
  construct_s += o.construct_s;
  selector_s += o.selector_s;
  simulator_s += o.simulator_s;
  return *this;
}

std::unique_ptr<sim::Simulator> build_campaign(const exp::ExperimentConfig& cfg,
                                               std::uint64_t seed,
                                               SetupTimes* times,
                                               Tracer* tracer) {
  SetupTimes t;
  Clock::time_point t0 = Clock::now();
  mcs::Rng rng(seed);
  mcs::model::World world = sim::generate_world(cfg.scenario, rng);
  t.world_gen_s = seconds_since(t0);

  t0 = Clock::now();
  mcs::Rng mech_rng = rng.split(0xfeed);
  std::unique_ptr<mcs::incentive::IncentiveMechanism> mechanism =
      mcs::incentive::make_mechanism(cfg.mechanism, world, cfg.mech_params,
                                     mech_rng);
  t.construct_s = seconds_since(t0);

  t0 = Clock::now();
  std::unique_ptr<mcs::select::TaskSelector> selector =
      mcs::select::make_selector(cfg.selector, cfg.dp_candidate_cap);
  t.selector_s = seconds_since(t0);

  if (tracer != nullptr) {
    mechanism = tracer->wrap(std::move(mechanism));
    selector = tracer->wrap(std::move(selector));
  }

  // Mirrors exp::run_repetition's simulator parameters.
  sim::SimulatorParams sp;
  sp.max_rounds = cfg.max_rounds;
  sp.platform_budget = cfg.mech_params.platform_budget;
  sp.order_seed = seed ^ 0x5bd1e995;
  sp.faults = cfg.faults;
  sp.plan_threads = cfg.plan_threads;
  sp.reprice_threads = cfg.reprice_threads;
  sp.shards = cfg.shards;
  sp.phase_timers = cfg.phase_timers || tracer != nullptr;
  sp.memo.enabled = cfg.plan_memo;
  std::unique_ptr<sim::MobilityModel> mobility =
      sim::make_mobility(cfg.mobility, cfg.drift_sigma);

  t0 = Clock::now();
  auto simulator = std::make_unique<sim::Simulator>(
      std::move(world), std::move(mechanism), std::move(selector), sp,
      std::move(mobility));
  t.simulator_s = seconds_since(t0);
  if (times != nullptr) *times = t;
  return simulator;
}

double run_campaign(sim::Simulator& s, mcs::Round max_rounds,
                    std::vector<double>* round_walls) {
  const Clock::time_point start = Clock::now();
  while (s.current_round() < max_rounds && !s.all_tasks_closed()) {
    const Clock::time_point t0 = Clock::now();
    s.step();
    if (round_walls != nullptr) round_walls->push_back(seconds_since(t0));
  }
  return seconds_since(start);
}

namespace {

class Fnv {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void num(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void integer(long long v) { word(static_cast<std::uint64_t>(v)); }
  void stats(const mcs::RunningStats& s) {
    integer(static_cast<long long>(s.count()));
    num(s.mean());
    num(s.variance());
    num(s.min());
    num(s.max());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kDigestSeed;
};

std::string violation(const char* what, double value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (%.17g)", what, value);
  return buf;
}

bool is_pct(double v) { return v >= 0.0 && v <= 100.0; }

constexpr const char* kLevelViolation =
    "Table III: mean open reward outside [r0, r0+lambda(N-1)]";

// Eq. 9 with the budget tracker's tolerance (budget.h: 1e-9 + 1e-12 B).
struct PaperBounds {
  double budget_tol;
  double level_lo;  // r0
  double level_hi;  // r0 + lambda (N - 1)
};

PaperBounds paper_bounds(const exp::ExperimentConfig& cfg) {
  const double b = cfg.mech_params.platform_budget;
  // Every workload draws phi without spread, so sum(phi) is exact here.
  const double sum_phi = static_cast<double>(cfg.scenario.num_tasks) *
                         cfg.scenario.required_measurements;
  const double span =
      cfg.mech_params.lambda * (cfg.mech_params.demand_levels - 1);
  const double r0 = b / sum_phi - span;
  return {1e-9 + 1e-12 * b, r0, r0 + span};
}

// Mean of per-task prices, so it may land an ulp or two outside the level
// range it averages.
bool in_level_range(const PaperBounds& pb, double mean) {
  const double slack = 1e-12 * pb.level_hi;
  return mean >= pb.level_lo - slack && mean <= pb.level_hi + slack;
}

}  // namespace

std::uint64_t campaign_digest(const sim::CampaignMetrics& m,
                              std::size_t rounds) {
  Fnv f;
  f.integer(static_cast<long long>(m.per_task_received.size()));
  for (const int r : m.per_task_received) f.integer(r);
  f.num(m.total_paid);
  f.integer(m.total_measurements);
  f.integer(m.lost_measurements);
  f.integer(m.corrupted_measurements);
  f.integer(m.dropped_user_rounds);
  f.integer(m.abandoned_tours);
  f.integer(m.withdrawn_task_rounds);
  f.integer(m.plan_exact_hits);
  f.integer(m.plan_fixup_hits);
  f.integer(m.plan_misses);
  f.integer(m.plan_fallbacks);
  f.integer(static_cast<long long>(rounds));
  return f.value();
}

std::uint64_t aggregate_digest(const exp::AggregateResult& a) {
  Fnv f;
  for (const mcs::RunningStats* s :
       {&a.coverage, &a.completeness, &a.tasks_completed, &a.avg_measurements,
        &a.measurement_variance, &a.reward_per_measurement, &a.total_paid,
        &a.overdraft, &a.reward_gini, &a.reward_jain, &a.active_fraction,
        &a.dropped_users, &a.abandoned_tours, &a.lost_measurements,
        &a.wasted_travel}) {
    f.stats(*s);
  }
  for (const auto* series :
       {&a.round_new_measurements, &a.round_coverage, &a.round_completeness,
        &a.round_mean_profit, &a.round_mean_reward}) {
    f.integer(static_cast<long long>(series->size()));
    for (const mcs::RunningStats& s : *series) f.stats(s);
  }
  f.integer(static_cast<long long>(a.failed_reps.size()));
  for (const exp::FailedRepetition& r : a.failed_reps) f.integer(r.rep);
  return f.value();
}

std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t digest) {
  Fnv f;
  f.word(acc);
  f.word(digest);
  return f.value();
}

std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string check_campaign(const exp::ExperimentConfig& cfg,
                           const sim::CampaignMetrics& m,
                           const std::vector<sim::RoundMetrics>& rounds) {
  const PaperBounds pb = paper_bounds(cfg);
  if (!(m.total_paid <= cfg.mech_params.platform_budget + pb.budget_tol)) {
    return violation("Eq. 8: payout exceeds the budget", m.total_paid);
  }
  if (m.budget_overdraft != 0.0) {
    return violation("Eq. 8: overdraft", m.budget_overdraft);
  }
  if (!is_pct(m.coverage_pct)) {
    return violation("coverage out of [0, 100]", m.coverage_pct);
  }
  if (!is_pct(m.completeness_pct)) {
    return violation("completeness out of [0, 100]", m.completeness_pct);
  }
  for (const sim::RoundMetrics& rm : rounds) {
    if (!is_pct(rm.coverage_pct) || !is_pct(rm.completeness_pct)) {
      return violation("round coverage/completeness out of [0, 100]",
                       rm.round);
    }
    if (cfg.mechanism == mcs::incentive::MechanismKind::kOnDemand &&
        rm.open_tasks > 0 && !in_level_range(pb, rm.mean_open_reward)) {
      return violation(kLevelViolation, rm.mean_open_reward);
    }
  }
  return {};
}

std::string check_aggregate(const exp::ExperimentConfig& cfg,
                            const exp::AggregateResult& a) {
  const PaperBounds pb = paper_bounds(cfg);
  const double max_paid = a.total_paid.max();
  if (!(max_paid <= cfg.mech_params.platform_budget + pb.budget_tol)) {
    return violation("Eq. 8: payout exceeds the budget", max_paid);
  }
  if (a.overdraft.min() != 0.0 || a.overdraft.max() != 0.0) {
    return violation("Eq. 8: overdraft", a.overdraft.max());
  }
  for (const mcs::RunningStats* s : {&a.coverage, &a.completeness}) {
    if (!is_pct(s->min()) || !is_pct(s->max())) {
      return violation("coverage/completeness out of [0, 100]", s->max());
    }
  }
  for (const auto* series : {&a.round_coverage, &a.round_completeness}) {
    for (const mcs::RunningStats& s : *series) {
      if (s.count() > 0 && (!is_pct(s.min()) || !is_pct(s.max()))) {
        return violation("round coverage/completeness out of [0, 100]",
                         s.max());
      }
    }
  }
  // round_mean_reward only sees live rounds, and a live round has at least
  // one open task (the campaign stops once every task is closed).
  if (cfg.mechanism == mcs::incentive::MechanismKind::kOnDemand) {
    for (const mcs::RunningStats& s : a.round_mean_reward) {
      if (s.count() > 0 &&
          (!in_level_range(pb, s.min()) || !in_level_range(pb, s.max()))) {
        return violation(kLevelViolation, s.max());
      }
    }
  }
  return {};
}

}  // namespace perfbench
