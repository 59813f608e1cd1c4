#include "exp/figures.h"

#include <cstdlib>
#include <iostream>

#include "common/error.h"
#include "common/strings.h"

namespace mcs::exp {

namespace {

// Default worker count when no --threads flag is given: the MCS_THREADS
// environment variable if set, otherwise 0 (one worker per hardware
// thread). Thread count never changes results — aggregates are
// bit-identical to the serial run — so auto-parallel is a safe default.
int threads_default_from_env() {
  const char* env = std::getenv("MCS_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed < 0 ? 0 : static_cast<int>(parsed);
}

// Default plan-thread count when no --plan-threads flag is given: the
// MCS_PLAN_THREADS environment variable if set, otherwise 1 (serial
// planning — repetition fan-out already saturates the cores for the stock
// experiment panels).
int plan_threads_default_from_env() {
  const char* env = std::getenv("MCS_PLAN_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed < 0 ? 1 : static_cast<int>(parsed);
}

// Default reprice-thread count when no --reprice-threads flag is given:
// the MCS_REPRICE_THREADS environment variable if set, otherwise 1 (serial
// repricing — same reasoning as plan threads).
int reprice_threads_default_from_env() {
  const char* env = std::getenv("MCS_REPRICE_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed < 0 ? 1 : static_cast<int>(parsed);
}

// Default for --plan-memo: the MCS_PLAN_MEMO environment variable ("1"
// enables), otherwise off. Memoization never changes results; it is off by
// default only because the stock panels' continuous user homes make hits
// impossible, so the table would be pure overhead.
bool plan_memo_default_from_env() {
  const char* env = std::getenv("MCS_PLAN_MEMO");
  return env != nullptr && *env == '1';
}

// Default for --shards: the MCS_SHARDS environment variable ("auto" = one
// worker per hardware thread), otherwise 0 (take --plan-threads).
std::string shards_default_from_env() {
  const char* env = std::getenv("MCS_SHARDS");
  return env == nullptr ? std::string("0") : std::string(env);
}

int parse_shards(const std::string& s) {
  if (s == "auto") return sim::SimulatorParams::kAutoShards;
  const long parsed = std::strtol(s.c_str(), nullptr, 10);
  MCS_CHECK(parsed >= -1,
            "--shards must be 'auto', -1 (auto), 0 (plan threads) or a worker "
            "count");
  return static_cast<int>(parsed);
}

}  // namespace

ExperimentConfig experiment_from_config(const Config& cfg) {
  ExperimentConfig e;
  sim::ScenarioParams& s = e.scenario;
  s.area_side = cfg.get_double("area", s.area_side);
  s.num_tasks = static_cast<int>(cfg.get_int("tasks", s.num_tasks));
  s.num_users = static_cast<int>(cfg.get_int("users", s.num_users));
  s.required_measurements =
      static_cast<int>(cfg.get_int("required", s.required_measurements));
  s.required_spread =
      static_cast<int>(cfg.get_int("required-spread", s.required_spread));
  s.deadline_min = static_cast<Round>(cfg.get_int("deadline-min", s.deadline_min));
  s.deadline_max = static_cast<Round>(cfg.get_int("deadline-max", s.deadline_max));
  s.speed_mps = cfg.get_double("speed", s.speed_mps);
  s.cost_per_meter = cfg.get_double("cost-per-meter", s.cost_per_meter);
  s.user_budget_min_s = cfg.get_double("user-budget-min", s.user_budget_min_s);
  s.user_budget_max_s = cfg.get_double("user-budget-max", s.user_budget_max_s);
  s.neighbor_radius = cfg.get_double("radius", s.neighbor_radius);
  s.home_sites = static_cast<int>(cfg.get_int("home-sites", s.home_sites));
  s.user_budget_quantum_s =
      cfg.get_double("budget-quantum", s.user_budget_quantum_s);

  incentive::MechanismParams& m = e.mech_params;
  m.platform_budget = cfg.get_double("budget", m.platform_budget);
  m.lambda = cfg.get_double("lambda", m.lambda);
  m.demand_levels = static_cast<int>(cfg.get_int("levels", m.demand_levels));
  m.steered_rc = cfg.get_double("steered-rc", m.steered_rc);
  m.steered_mu = cfg.get_double("steered-mu", m.steered_mu);
  m.steered_delta = cfg.get_double("steered-delta", m.steered_delta);

  e.mechanism =
      incentive::parse_mechanism(cfg.get_string("mechanism", "on-demand"));
  e.selector = select::parse_selector(
      cfg.get_string("selector", select::selector_name(e.selector)));
  e.dp_candidate_cap =
      static_cast<int>(cfg.get_int("dp-cap", e.dp_candidate_cap));
  e.mobility = sim::parse_mobility(
      cfg.get_string("mobility", sim::mobility_name(e.mobility)));
  e.drift_sigma = cfg.get_double("drift-sigma", e.drift_sigma);
  e.max_rounds = static_cast<Round>(cfg.get_int("rounds", e.max_rounds));
  e.repetitions = static_cast<int>(cfg.get_int("reps", e.repetitions));
  e.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  sim::FaultPlan& f = e.faults;
  f.dropout_prob = cfg.get_double("dropout", f.dropout_prob);
  f.abandon_prob = cfg.get_double("abandon", f.abandon_prob);
  f.upload_loss_prob = cfg.get_double("loss", f.upload_loss_prob);
  f.corruption_prob = cfg.get_double("corrupt", f.corruption_prob);
  f.withdraw_prob = cfg.get_double("withdraw", f.withdraw_prob);
  f.seed = static_cast<std::uint64_t>(cfg.get_int("fault-seed", 0));
  f.validate();

  e.threads =
      static_cast<int>(cfg.get_int("threads", threads_default_from_env()));
  MCS_CHECK(e.threads >= 0, "--threads must be >= 0 (0 = all cores)");
  e.plan_threads = static_cast<int>(
      cfg.get_int("plan-threads", plan_threads_default_from_env()));
  MCS_CHECK(e.plan_threads >= 0,
            "--plan-threads must be >= 0 (0 = all cores, 1 = serial)");
  e.reprice_threads = static_cast<int>(
      cfg.get_int("reprice-threads", reprice_threads_default_from_env()));
  MCS_CHECK(e.reprice_threads >= 0,
            "--reprice-threads must be >= 0 (0 = all cores, 1 = serial)");
  e.plan_memo = cfg.get_bool("plan-memo", plan_memo_default_from_env());
  e.shards = parse_shards(cfg.get_string("shards", shards_default_from_env()));
  e.phase_timers = cfg.get_bool("phase-timers", false);
  e.max_attempts = static_cast<int>(cfg.get_int("max-attempts", e.max_attempts));
  MCS_CHECK(e.max_attempts >= 1, "--max-attempts must be >= 1");
  e.checkpoint_every =
      static_cast<Round>(cfg.get_int("checkpoint-every", e.checkpoint_every));
  MCS_CHECK(e.checkpoint_every >= 0,
            "--checkpoint-every must be >= 0 (0 = off)");
  e.checkpoint_dir = cfg.get_string("checkpoint-dir", e.checkpoint_dir);
  MCS_CHECK(e.checkpoint_every == 0 || !e.checkpoint_dir.empty(),
            "--checkpoint-every needs --checkpoint-dir");
  return e;
}

std::vector<int> user_counts_from_config(const Config& cfg) {
  const int from = static_cast<int>(cfg.get_int("users-from", 40));
  const int to = static_cast<int>(cfg.get_int("users-to", 140));
  const int step = static_cast<int>(cfg.get_int("users-step", 20));
  MCS_CHECK(from >= 1 && to >= from && step >= 1, "bad user-count sweep");
  std::vector<int> out;
  for (int n = from; n <= to; n += step) out.push_back(n);
  return out;
}

std::vector<incentive::MechanismKind> all_mechanisms() {
  return {incentive::MechanismKind::kOnDemand, incentive::MechanismKind::kFixed,
          incentive::MechanismKind::kSteered};
}

UserSweep::UserSweep(ExperimentConfig base, std::vector<int> user_counts,
                     std::vector<incentive::MechanismKind> mechanisms)
    : base_(std::move(base)),
      user_counts_(std::move(user_counts)),
      mechanisms_(std::move(mechanisms)) {
  MCS_CHECK(!user_counts_.empty(), "user sweep needs at least one count");
  MCS_CHECK(!mechanisms_.empty(), "user sweep needs at least one mechanism");
}

void UserSweep::run() {
  results_.assign(mechanisms_.size(), {});
  for (std::size_t mi = 0; mi < mechanisms_.size(); ++mi) {
    results_[mi].reserve(user_counts_.size());
    for (const int n : user_counts_) {
      ExperimentConfig cfg = base_;
      cfg.mechanism = mechanisms_[mi];
      cfg.scenario.num_users = n;
      results_[mi].push_back(run_experiment(cfg));
    }
  }
  ran_ = true;
}

const AggregateResult& UserSweep::result(std::size_t mech,
                                         std::size_t user_idx) const {
  MCS_CHECK(ran_, "UserSweep::run() not called");
  return results_.at(mech).at(user_idx);
}

TextTable UserSweep::table(
    const std::function<double(const AggregateResult&)>& metric,
    const std::string& x_label, int decimals) const {
  MCS_CHECK(ran_, "UserSweep::run() not called");
  std::vector<std::string> header{x_label};
  for (const auto kind : mechanisms_) {
    header.emplace_back(incentive::mechanism_name(kind));
  }
  TextTable t(header);
  for (std::size_t ui = 0; ui < user_counts_.size(); ++ui) {
    std::vector<std::string> row{std::to_string(user_counts_[ui])};
    for (std::size_t mi = 0; mi < mechanisms_.size(); ++mi) {
      row.push_back(format_fixed(metric(results_[mi][ui]), decimals));
    }
    t.add_row(std::move(row));
  }
  return t;
}

RoundSeries::RoundSeries(ExperimentConfig base,
                         std::vector<incentive::MechanismKind> mechanisms)
    : base_(std::move(base)), mechanisms_(std::move(mechanisms)) {
  MCS_CHECK(!mechanisms_.empty(), "round series needs at least one mechanism");
}

void RoundSeries::run() {
  results_.clear();
  results_.reserve(mechanisms_.size());
  for (const auto kind : mechanisms_) {
    ExperimentConfig cfg = base_;
    cfg.mechanism = kind;
    results_.push_back(run_experiment(cfg));
  }
  ran_ = true;
}

const AggregateResult& RoundSeries::result(std::size_t mech) const {
  MCS_CHECK(ran_, "RoundSeries::run() not called");
  return results_.at(mech);
}

TextTable RoundSeries::table(
    const std::function<double(const AggregateResult&, std::size_t)>& metric,
    Round first_round, int decimals) const {
  MCS_CHECK(ran_, "RoundSeries::run() not called");
  std::vector<std::string> header{"round"};
  for (const auto kind : mechanisms_) {
    header.emplace_back(incentive::mechanism_name(kind));
  }
  TextTable t(header);
  for (Round k = first_round; k <= base_.max_rounds; ++k) {
    std::vector<std::string> row{std::to_string(k)};
    for (std::size_t mi = 0; mi < mechanisms_.size(); ++mi) {
      row.push_back(format_fixed(
          metric(results_[mi], static_cast<std::size_t>(k - 1)), decimals));
    }
    t.add_row(std::move(row));
  }
  return t;
}

void print_experiment_header(const ExperimentConfig& cfg,
                             const std::string& title) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "area=" << cfg.scenario.area_side << "m"
            << " tasks=" << cfg.scenario.num_tasks
            << " users=" << cfg.scenario.num_users
            << " phi=" << cfg.scenario.required_measurements << " deadlines=["
            << cfg.scenario.deadline_min << "," << cfg.scenario.deadline_max
            << "]"
            << " user-budget=[" << cfg.scenario.user_budget_min_s << ","
            << cfg.scenario.user_budget_max_s << "]s"
            << " radius=" << cfg.scenario.neighbor_radius << "m\n";
  std::cout << "B=$" << cfg.mech_params.platform_budget
            << " lambda=$" << cfg.mech_params.lambda
            << " levels=" << cfg.mech_params.demand_levels
            << " selector=" << select::selector_name(cfg.selector)
            << " dp-cap=" << cfg.dp_candidate_cap
            << " rounds=" << cfg.max_rounds << " reps=" << cfg.repetitions
            << " seed=" << cfg.seed << " threads="
            << (cfg.threads == 0 ? std::string("auto")
                                 : std::to_string(cfg.threads))
            << " plan-threads="
            << (cfg.plan_threads == 0 ? std::string("auto")
                                      : std::to_string(cfg.plan_threads))
            << " reprice-threads="
            << (cfg.reprice_threads == 0 ? std::string("auto")
                                         : std::to_string(cfg.reprice_threads))
            << " plan-memo=" << (cfg.plan_memo ? "on" : "off")
            << " shards="
            << (cfg.shards == sim::SimulatorParams::kAutoShards
                    ? std::string("auto")
                    : std::to_string(cfg.shards))
            << " max-attempts=" << cfg.max_attempts << "\n";
  if (cfg.checkpoint_every > 0) {
    std::cout << "checkpoints: every=" << cfg.checkpoint_every
              << " dir=" << cfg.checkpoint_dir << "\n";
  }
  if (cfg.faults.any()) {
    std::cout << "faults: dropout=" << cfg.faults.dropout_prob
              << " abandon=" << cfg.faults.abandon_prob
              << " loss=" << cfg.faults.upload_loss_prob
              << " corrupt=" << cfg.faults.corruption_prob
              << " withdraw=" << cfg.faults.withdraw_prob
              << " fault-seed=" << cfg.faults.seed << "\n";
  }
  std::cout << "\n";
}

void warn_unconsumed(const Config& cfg) {
  for (const std::string& key : cfg.unconsumed_keys()) {
    std::cerr << "warning: unrecognized flag --" << key << "\n";
  }
}

void maybe_dump_csv(const Config& cfg, const std::string& name,
                    const TextTable& table) {
  const std::string dir = cfg.get_string("csv-dir", "");
  if (dir.empty()) return;
  const std::string path = dir + "/" + name + ".csv";
  table.as_csv().write_file(path);
  std::cerr << "wrote " << path << "\n";
}

}  // namespace mcs::exp
