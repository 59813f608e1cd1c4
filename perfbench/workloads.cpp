#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <sched.h>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "campaign.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "geo/spatial_grid.h"
#include "sim/scenario.h"
#include "trace.h"

namespace perfbench {

namespace exp = mcs::exp;
namespace mi = mcs::incentive;
namespace sim = mcs::sim;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"user_rounds_per_s", "1/s"},
      {"round_p50_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"exp.campaign_p50_s", "s"},
      {"exp.campaign_p99_s", "s"},
      {"exp.worker_busy_share", "ratio"},
      {"exp.retries", "count"},
      {"exp.failed_reps", "count"},
      {"sim.prepass_s", "s"},
      {"sim.plan_s", "s"},
      {"sim.reprice_s", "s"},
      {"sim.commit_s", "s"},
      {"sim.untimed_share", "ratio"},
      {"sim.step_self_s", "s"},
      {"sim.prepass_speedup", "x"},
      {"sim.plan_speedup", "x"},
      {"sim.reprice_speedup", "x"},
      {"sim.commit_speedup", "x"},
      {"select.calls", "count"},
      {"select.busy_s", "s"},
      {"select.candidates_mean", "count"},
      {"select.nonempty_share", "ratio"},
      {"select.memo_hit_rate", "ratio"},
      {"select.memo_fallbacks", "count"},
      {"incentive.update_calls", "count"},
      {"incentive.update_s", "s"},
      {"incentive.reprice_calls", "count"},
      {"incentive.reprice_s", "s"},
      {"incentive.construct_s", "s"},
      {"sim.world_gen_s", "s"},
      {"model.neighbor_build_s", "s"},
      {"geo.grid_build_s", "s"},
      {"geo.count_radius_ns", "ns"},
      {"trace_overhead_share", "ratio"},
  };
  return defs;
}

namespace {

// nproc on the machine the benchmark was calibrated on: the sweep's runner
// threads and the simulator workers of the single-campaign workloads.
constexpr int kWorkers = 4;
// Repetitions per mechanism in one paper_sweep batch (~0.25 s at 4 threads).
constexpr int kSweepReps = 500;

constexpr std::array<mi::MechanismKind, 3> kSweepMechanisms = {
    mi::MechanismKind::kOnDemand, mi::MechanismKind::kFixed,
    mi::MechanismKind::kSteered};

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  return mcs::SplitMix64(base ^ (0x9e3779b97f4a7c15ULL * (index + 1))).next();
}

// The §VI setup of examples/scenarios/paper_section_vi.json: 100 users and
// 20 tasks on a 3 km square, phi = 20, 15 rounds, B = 1000, DP capped at 14
// candidates, static homes.
exp::ExperimentConfig paper_config(mi::MechanismKind kind, int variant) {
  exp::ExperimentConfig cfg;
  sim::ScenarioParams& sc = cfg.scenario;
  sc.area_side = 3000.0;
  sc.num_tasks = 20;
  sc.num_users = 100;
  sc.required_measurements = 20;
  sc.required_spread = 0;
  sc.deadline_min = 5;
  sc.deadline_max = 15;
  sc.speed_mps = 2.0;
  sc.cost_per_meter = 0.002;
  sc.user_budget_min_s = 300.0;
  sc.user_budget_max_s = 600.0;
  sc.neighbor_radius = 500.0;
  cfg.mechanism = kind;
  cfg.mech_params.platform_budget = 1000.0;
  cfg.selector = mcs::select::SelectorKind::kDp;
  cfg.dp_candidate_cap = 14;
  cfg.mobility = sim::MobilityKind::kStaticHome;
  cfg.max_rounds = 15;
  cfg.repetitions = kSweepReps;
  cfg.seed = derive_seed(0x9a9e5eedULL, static_cast<std::uint64_t>(variant));
  cfg.threads = kWorkers;
  set_sim_workers(cfg, 1, /*sharded=*/false);
  return cfg;
}

// 200k users and 20k tasks at BM_CampaignSharded's density (a 42 km
// square), phi = 300 and deadlines 10-15 so no task closes within the six
// rounds and every round does similar work; B = 3 phi T gives r0 = 1.
exp::ExperimentConfig metro_config() {
  exp::ExperimentConfig cfg;
  sim::ScenarioParams& sc = cfg.scenario;
  sc.num_users = 200000;
  sc.num_tasks = 20000;
  sc.area_side = 30000.0 * std::sqrt(2.0);
  sc.required_measurements = 300;
  sc.required_spread = 0;
  sc.deadline_min = 10;
  sc.deadline_max = 15;
  cfg.mechanism = mi::MechanismKind::kOnDemand;
  cfg.mech_params.platform_budget = 3.0 * 300.0 * 20000.0;
  cfg.selector = mcs::select::SelectorKind::kGreedy;
  cfg.mobility = sim::MobilityKind::kStaticHome;
  cfg.max_rounds = 6;
  cfg.faults.dropout_prob = 0.05;
  cfg.faults.upload_loss_prob = 0.02;
  cfg.faults.abandon_prob = 0.02;
  cfg.faults.seed = 0xfa17;
  set_sim_workers(cfg, kWorkers, /*sharded=*/true);
  return cfg;
}

// The memo regime: 10k users homed at 64 shared sites with 150 s budget
// quanta on a 1.5 km square, 200 tasks with phi = 2000 (about 12 rounds),
// DP with the cross-user plan memo on.
exp::ExperimentConfig dense_config() {
  exp::ExperimentConfig cfg;
  sim::ScenarioParams& sc = cfg.scenario;
  sc.num_users = 10000;
  sc.num_tasks = 200;
  sc.area_side = 1500.0;
  sc.home_sites = 64;
  sc.user_budget_quantum_s = 150.0;
  sc.required_measurements = 2000;
  sc.required_spread = 0;
  cfg.mechanism = mi::MechanismKind::kOnDemand;
  cfg.mech_params.platform_budget = 3.0 * 2000.0 * 200.0;
  cfg.selector = mcs::select::SelectorKind::kDp;
  cfg.dp_candidate_cap = 14;
  cfg.mobility = sim::MobilityKind::kStaticHome;
  cfg.max_rounds = 15;
  cfg.plan_memo = true;
  set_sim_workers(cfg, kWorkers, /*sharded=*/true);
  return cfg;
}

constexpr int kDenseSeeds = 16;
// paper_sweep steps its campaigns, kWorkers at a time as the runner does,
// and checks them against the reference, in slices of this many
// consecutive repetitions.
constexpr std::size_t kSweepSlice = 300;
// Set-up passes before each timed unit of an untraced run. Single-thread
// timings on this class of VM swing with the load on the host core the
// thread lands on, so set-up is sampled all through the run and on every
// CPU (see PinnedToCpu).
constexpr int kSetupPasses = 3;

struct Job {
  exp::ExperimentConfig cfg;
  std::uint64_t seed;
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;  // every campaign of the workload, in order
  std::vector<exp::ExperimentConfig> sweep;  // paper_sweep only
  std::size_t chunk = 1;  // jobs per reference digest and per timed unit
  int workers = 1;        // simulator workers of the untraced run
  bool sharded = false;   // round loop the workload measures
};

Workload make_workload(const std::string& name, int variant) {
  Workload w;
  w.name = name;
  const auto v = static_cast<std::uint64_t>(variant);
  if (name == "paper_sweep") {
    for (const mi::MechanismKind kind : kSweepMechanisms) {
      w.sweep.push_back(paper_config(kind, variant));
      for (int rep = 0; rep < kSweepReps; ++rep) {
        w.jobs.push_back(
            {w.sweep.back(), exp::repetition_seed(w.sweep.back(), rep)});
      }
    }
    w.chunk = kSweepSlice;
  } else if (name == "metro") {
    w.jobs.push_back({metro_config(), derive_seed(0x3e7a0ULL, v)});
    w.workers = kWorkers;
    w.sharded = true;
  } else if (name == "dense_poi") {
    for (int i = 0; i < kDenseSeeds; ++i) {
      w.jobs.push_back(
          {dense_config(), derive_seed(0xde05eULL + 1000 * v,
                                       static_cast<std::uint64_t>(i))});
    }
    w.workers = kWorkers;
    w.sharded = true;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<Job> with_workers(std::vector<Job> jobs, int workers,
                              bool sharded) {
  for (Job& j : jobs) set_sim_workers(j.cfg, workers, sharded);
  return jobs;
}

std::vector<std::uint64_t> chunk_digests(
    const std::vector<std::uint64_t>& digests, std::size_t chunk) {
  std::vector<std::uint64_t> out;
  for (std::size_t lo = 0; lo < digests.size(); lo += chunk) {
    std::uint64_t d = kDigestSeed;
    for (std::size_t j = lo; j < std::min(digests.size(), lo + chunk); ++j) {
      d = fold_digest(d, digests[j]);
    }
    out.push_back(d);
  }
  return out;
}

// One campaign of a pass: set-up, the stepped campaign, its digest and
// checks. The simulator is destroyed outside every timer.
struct CampaignRun {
  SetupTimes setup;
  double wall_s = 0.0;
  std::vector<double> round_walls;
  long long user_rounds = 0;
  std::uint64_t digest = 0;  // 0 when the campaign threw
  std::string error;         // empty unless it threw or failed a check
  sim::CampaignMetrics metrics;
};

CampaignRun run_one(const Job& job, Tracer* tracer) {
  CampaignRun c;
  try {
    std::unique_ptr<sim::Simulator> s =
        build_campaign(job.cfg, job.seed, &c.setup, tracer);
    c.wall_s = run_campaign(*s, job.cfg.max_rounds, &c.round_walls);
    c.metrics = s->summary();
    const std::size_t rounds = s->history().size();
    c.user_rounds =
        static_cast<long long>(rounds) * job.cfg.scenario.num_users;
    c.digest = campaign_digest(c.metrics, rounds);
    c.error = check_campaign(job.cfg, c.metrics, s->history());
  } catch (const std::exception& e) {
    c.error = std::string("threw: ") + e.what();
  }
  if (!c.error.empty()) {
    c.error = "seed " + std::to_string(job.seed) + ": " + c.error;
  }
  return c;
}

// Freed memory goes back to the kernel between campaigns, so the process's
// high-water mark is the largest campaign's own footprint and not an
// artifact of which allocator arenas earlier worker threads happened to use.
void release_free_memory() { malloc_trim(0); }

// The results of a pass over consecutive campaigns, in job order.
struct Pass {
  SetupTimes setup;
  std::vector<double> campaign_walls;
  std::vector<double> round_walls;
  std::vector<std::uint64_t> digests;  // per campaign
  std::vector<char> bad;               // per campaign: threw or failed a check
  double wall_s = 0.0;
  long long user_rounds = 0;
  std::array<double, 4> phase{};  // prepass, plan, reprice, commit
  long long memo_hits = 0;
  long long memo_lookups = 0;
  long long memo_fallbacks = 0;

  void add(const CampaignRun& c, std::vector<std::string>& errors) {
    const sim::CampaignMetrics& m = c.metrics;
    setup += c.setup;
    campaign_walls.push_back(c.wall_s);
    round_walls.insert(round_walls.end(), c.round_walls.begin(),
                       c.round_walls.end());
    digests.push_back(c.digest);
    bad.push_back(c.error.empty() ? 0 : 1);
    if (!c.error.empty()) errors.push_back(c.error);
    wall_s += c.wall_s;
    user_rounds += c.user_rounds;
    phase[0] += m.phase_prepass_s;
    phase[1] += m.phase_plan_s;
    phase[2] += m.phase_reprice_s;
    phase[3] += m.phase_commit_s;
    memo_hits += m.plan_exact_hits + m.plan_fixup_hits;
    memo_lookups += m.plan_exact_hits + m.plan_fixup_hits + m.plan_misses;
    memo_fallbacks += m.plan_fallbacks;
  }
  double step_s() const {
    return std::accumulate(round_walls.begin(), round_walls.end(), 0.0);
  }
  double rate() const { return static_cast<double>(user_rounds) / wall_s; }
};

// Runs the campaigns `threads` at a time; results merge in job order, so
// they do not depend on `threads`.
Pass run_pass(std::span<const Job> jobs, Tracer* tracer,
              std::vector<std::string>& errors, int threads = 1) {
  std::vector<CampaignRun> runs(jobs.size());
  if (threads == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      runs[i] = run_one(jobs[i], tracer);
      release_free_memory();
    }
  } else {
    mcs::parallel_for_each(threads, jobs.size(), [&](std::size_t i) {
      runs[i] = run_one(jobs[i], tracer);
    });
    release_free_memory();
  }
  Pass p;
  for (const CampaignRun& c : runs) p.add(c, errors);
  return p;
}

// Adds a pass over jobs [first, first + n) to the run's operation counts,
// checking it against the reference digests. A digest covers w.chunk
// campaigns, so a mismatch fails all of them.
void account(RunResult& r, const Pass& p, const Workload& w, std::size_t first,
             const mcs::Json& ref, const char* what) {
  const mcs::Json& want = ref.at("chunks");
  const std::vector<std::uint64_t> got = chunk_digests(p.digests, w.chunk);
  r.attempted += static_cast<long long>(p.digests.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    const std::size_t lo = c * w.chunk;
    const std::size_t hi = std::min(p.digests.size(), lo + w.chunk);
    const std::string expected = want.at((first + lo) / w.chunk).as_string();
    if (hex_digest(got[c]) != expected) {
      r.failed += static_cast<long long>(hi - lo);
      r.errors.push_back(std::string(what) + ": campaigns " +
                         std::to_string(first + lo) + ".." +
                         std::to_string(first + hi - 1) + " digest " +
                         hex_digest(got[c]) + " != reference " + expected);
    } else {
      r.failed += std::accumulate(p.bad.begin() + static_cast<long>(lo),
                                  p.bad.begin() + static_cast<long>(hi), 0LL);
    }
  }
}

// One run_experiment batch per mechanism, each checked against the
// reference aggregate digest and the aggregate invariants.
struct SweepBatch {
  double wall_s = 0.0;
  long long user_rounds = 0;
  long long retries = 0;
  long long failed_reps = 0;
};

SweepBatch run_sweep_batch(const Workload& w, const mcs::Json& ref,
                           RunResult& r) {
  SweepBatch b;
  const mcs::Json& want = ref.at("aggregate");
  for (std::size_t i = 0; i < w.sweep.size(); ++i) {
    const exp::ExperimentConfig& cfg = w.sweep[i];
    const std::string label = mi::mechanism_name(cfg.mechanism);
    r.attempted += cfg.repetitions;
    try {
      const Clock::time_point t0 = Clock::now();
      const exp::AggregateResult agg = exp::run_experiment(cfg);
      b.wall_s += seconds_since(t0);
      // round_mean_reward counts every round a campaign ran.
      long long rounds = 0;
      for (const mcs::RunningStats& s : agg.round_mean_reward) {
        rounds += static_cast<long long>(s.count());
      }
      b.user_rounds += rounds * cfg.scenario.num_users;
      for (const int attempts : agg.rep_attempts) b.retries += attempts - 1;
      const auto failed = static_cast<long long>(agg.failed_reps.size());
      b.failed_reps += failed;
      const std::string got = hex_digest(aggregate_digest(agg));
      const std::string v = check_aggregate(cfg, agg);
      if (got != want.at(i).as_string()) {
        r.failed += cfg.repetitions;
        r.errors.push_back(label + " sweep: digest " + got + " != reference " +
                           want.at(i).as_string());
      } else if (!v.empty()) {
        r.failed += cfg.repetitions;
        r.errors.push_back(label + " sweep: " + v);
      } else {
        r.failed += failed;
      }
    } catch (const std::exception& e) {
      r.failed += cfg.repetitions;
      r.errors.push_back(label + " sweep threw: " + e.what());
    }
    release_free_memory();
  }
  return b;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : mcs::quantile(std::move(v), 0.5);
}

// The process's memory high-water mark in MB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// Restarts VmHWM from the current RSS, so each timed unit reads its own
// high-water mark. Where the kernel refuses, VmHWM stays process-lifetime.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// Pins the calling thread to one CPU of its affinity mask for the scope.
// Single-thread timings on this class of VM differ by up to 1.6x between
// vCPUs, so set-up samples rotate over all of them rather than reflect
// whichever vCPU the main thread happens to sit on.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t index) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::size_t skip = index % static_cast<std::size_t>(CPU_COUNT(&saved_));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// kSetupPasses set-up passes: every campaign of the workload built in
// sequence and destroyed outside the timer; one sample per pass, each pass
// on the next CPU. A build that throws leaves its pass unsampled; the same
// build fails its campaign in the timed pass.
void sample_setup(const std::vector<Job>& jobs, std::vector<double>& samples) {
  for (int i = 0; i < kSetupPasses; ++i) {
    const PinnedToCpu pin(samples.size());
    try {
      double total = 0.0;
      for (const Job& j : jobs) {
        SetupTimes t;
        build_campaign(j.cfg, j.seed, &t);
        total += t.total();
      }
      samples.push_back(total);
    } catch (const std::exception&) {
    }
  }
}

// The untraced run: timed units until `seconds` have passed, and at least
// enough to cover every campaign once and to give three samples.
// paper_sweep's unit is one run_experiment batch per mechanism, which sets
// the rate, plus the next slice of the sweep's campaigns stepped kWorkers
// at a time for the step() walls; the other workloads' unit is their next
// campaign. Each unit reads its own memory high-water mark; peak_rss_mb is
// the median.
RunResult run_untraced(const Workload& w, const mcs::Json& ref,
                       double seconds) {
  RunResult r;
  std::vector<double> setups;
  std::vector<double> round_walls;
  std::vector<double> peaks;
  double wall = 0.0;
  long long user_rounds = 0;
  const bool sweep = !w.sweep.empty();
  const std::size_t min_units =
      std::max<std::size_t>(w.jobs.size() / w.chunk, 3);
  const Clock::time_point start = Clock::now();
  for (std::size_t unit = 0;
       unit < min_units || seconds_since(start) < seconds; ++unit) {
    reset_peak_rss();
    sample_setup(w.jobs, setups);
    if (sweep) {
      const SweepBatch b = run_sweep_batch(w, ref, r);
      wall += b.wall_s;
      user_rounds += b.user_rounds;
    }
    const std::size_t first = (unit * w.chunk) % w.jobs.size();
    const std::span<const Job> slice =
        std::span<const Job>(w.jobs).subspan(first, w.chunk);
    const Pass p = run_pass(slice, nullptr, r.errors, sweep ? kWorkers : 1);
    account(r, p, w, first, ref, sweep ? "slice" : "campaign");
    round_walls.insert(round_walls.end(), p.round_walls.begin(),
                       p.round_walls.end());
    if (!sweep) {
      wall += p.wall_s;
      user_rounds += p.user_rounds;
    }
    peaks.push_back(peak_rss_mb());
  }
  r.metrics["user_rounds_per_s"] = static_cast<double>(user_rounds) / wall;
  r.metrics["round_p50_s"] = median(round_walls);
  r.metrics["setup_s"] = median(setups);
  r.metrics["peak_rss_mb"] = median(peaks);
  return r;
}

// Geometry probes on freshly generated worlds: a cold neighbor-cache build,
// and a FrozenGrid over the tasks queried at every user home. The two count
// the same (user, task) pairs, which checks the probe itself.
struct GeometryProbe {
  double neighbor_build_s = 0.0;
  double grid_build_s = 0.0;
  double query_s = 0.0;
  long long queries = 0;
};

GeometryProbe probe_geometry(const std::vector<Job>& jobs, RunResult& r) {
  GeometryProbe g;
  for (const Job& job : jobs) {
    mcs::Rng rng(job.seed);
    const mcs::model::World world = sim::generate_world(job.cfg.scenario, rng);
    Clock::time_point t0 = Clock::now();
    const std::vector<int>& counts = world.neighbor_counts();
    g.neighbor_build_s += seconds_since(t0);
    const long long pairs = std::accumulate(counts.begin(), counts.end(), 0LL);

    std::vector<mcs::geo::Point> task_pos;
    task_pos.reserve(world.num_tasks());
    for (const auto& t : world.tasks()) task_pos.push_back(t.location());
    t0 = Clock::now();
    const mcs::geo::FrozenGrid grid(world.area(), world.neighbor_radius(),
                                    task_pos);
    g.grid_build_s += seconds_since(t0);

    long long found = 0;
    t0 = Clock::now();
    for (const auto& u : world.users()) {
      found += static_cast<long long>(
          grid.count_radius(u.home(), world.neighbor_radius()));
    }
    g.query_s += seconds_since(t0);
    g.queries += static_cast<long long>(world.num_users());
    if (found != pairs) {
      ++r.failed;
      r.errors.push_back("geometry probe: grid counts " +
                         std::to_string(found) + " pairs, neighbor cache " +
                         std::to_string(pairs));
    }
  }
  return g;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The traced run. Every pass covers all of the workload's campaigns and is
// checked against the same reference digests, so traced equals untraced
// and 1 worker equals 4 workers, campaign by campaign.
RunResult run_traced(const Workload& w, const mcs::Json& ref) {
  RunResult r;
  auto& m = r.metrics;

  // Each campaign runs trace-off at the workload's worker count, traced at
  // that count, and traced at the other of {1, 4}, back to back, so the
  // three passes see the same machine conditions. All three are checked
  // against the same reference digests.
  Tracer tracer;
  Tracer alt_tracer;
  const int alt_workers = w.workers == 1 ? kWorkers : 1;
  const std::vector<Job> alt_jobs =
      with_workers(w.jobs, alt_workers, w.sharded);
  Pass base;
  Pass traced;
  Pass alt;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    base.add(run_one(w.jobs[i], nullptr), r.errors);
    release_free_memory();
    traced.add(run_one(w.jobs[i], &tracer), r.errors);
    release_free_memory();
    alt.add(run_one(alt_jobs[i], &alt_tracer), r.errors);
    release_free_memory();
  }
  account(r, base, w, 0, ref, "untraced pass");
  account(r, traced, w, 0, ref, "traced pass");
  account(r, alt, w, 0, ref,
          alt_workers == 1 ? "traced pass at 1 worker"
                           : "traced pass at 4 workers");
  const bool traced_is_serial = w.workers == 1;
  const Pass& one = traced_is_serial ? traced : alt;
  const Pass& four = traced_is_serial ? alt : traced;
  const Tracer& one_tracer = traced_is_serial ? tracer : alt_tracer;

  m["exp.campaign_p50_s"] = mcs::quantile(base.campaign_walls, 0.5);
  m["exp.campaign_p99_s"] = mcs::quantile(base.campaign_walls, 0.99);
  if (!w.sweep.empty()) {
    // Runner fan-out: the share of the batch's worker time spent inside
    // campaigns. Campaign times come from the same campaigns through
    // exp::run_repetition, kWorkers at a time so they run under the
    // batch's contention.
    std::vector<double> rep_s(w.jobs.size());
    Pass lib;
    lib.digests.resize(w.jobs.size());
    lib.bad.assign(w.jobs.size(), 0);
    mcs::parallel_for_each(kWorkers, w.jobs.size(), [&](std::size_t i) {
      try {
        const Clock::time_point t0 = Clock::now();
        const exp::RepetitionResult rep =
            exp::run_repetition(w.jobs[i].cfg, w.jobs[i].seed);
        rep_s[i] = seconds_since(t0);
        lib.digests[i] = campaign_digest(rep.campaign, rep.rounds.size());
      } catch (const std::exception&) {
        lib.bad[i] = 1;  // digest 0 fails the reference check
      }
    });
    release_free_memory();
    account(r, lib, w, 0, ref, "exp::run_repetition pass");
    const SweepBatch b = run_sweep_batch(w, ref, r);
    const double campaign_s = std::accumulate(rep_s.begin(), rep_s.end(), 0.0);
    m["exp.worker_busy_share"] = ratio(campaign_s, kWorkers * b.wall_s);
    m["exp.retries"] = static_cast<double>(b.retries);
    m["exp.failed_reps"] = static_cast<double>(b.failed_reps);
  } else {
    // No runner: the share of kWorkers simulator workers a campaign keeps
    // busy, from the same campaigns at 1 and at 4 workers.
    m["exp.worker_busy_share"] = ratio(one.wall_s, kWorkers * four.wall_s);
    m["exp.retries"] = 0.0;
    m["exp.failed_reps"] = 0.0;
  }

  static const char* const kPhases[] = {"prepass", "plan", "reprice", "commit"};
  double phase_sum = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string p = kPhases[i];
    m["sim." + p + "_s"] = traced.phase[i];
    m["sim." + p + "_speedup"] = ratio(one.phase[i], four.phase[i]);
    phase_sum += traced.phase[i];
  }
  m["sim.untimed_share"] = 1.0 - ratio(phase_sum, traced.step_s());
  // Self time is exact only where the child spans run on the step thread.
  const SelectStats one_sel = one_tracer.select_totals();
  const IncentiveStats one_inc = one_tracer.incentive_totals();
  m["sim.step_self_s"] =
      one.step_s() - one_sel.busy_s - one_inc.update_s - one_inc.reprice_s;

  const SelectStats sel = tracer.select_totals();
  const auto calls = static_cast<double>(sel.calls);
  m["select.calls"] = calls;
  m["select.busy_s"] = sel.busy_s;
  m["select.candidates_mean"] =
      ratio(static_cast<double>(sel.candidates), calls);
  m["select.nonempty_share"] = ratio(static_cast<double>(sel.nonempty), calls);
  m["select.memo_hit_rate"] = ratio(static_cast<double>(traced.memo_hits),
                                    static_cast<double>(traced.memo_lookups));
  m["select.memo_fallbacks"] = static_cast<double>(traced.memo_fallbacks);

  const IncentiveStats inc = tracer.incentive_totals();
  m["incentive.update_calls"] = static_cast<double>(inc.update_calls);
  m["incentive.update_s"] = inc.update_s;
  m["incentive.reprice_calls"] = static_cast<double>(inc.reprice_calls);
  m["incentive.reprice_s"] = inc.reprice_s;
  m["incentive.construct_s"] = traced.setup.construct_s;
  m["sim.world_gen_s"] = traced.setup.world_gen_s;

  const GeometryProbe g = probe_geometry(w.jobs, r);
  m["model.neighbor_build_s"] = g.neighbor_build_s;
  m["geo.grid_build_s"] = g.grid_build_s;
  m["geo.count_radius_ns"] =
      1e9 * ratio(g.query_s, static_cast<double>(g.queries));
  m["trace_overhead_share"] = 1.0 - ratio(traced.rate(), base.rate());
  return r;
}

}  // namespace

RunResult run_workload(const std::string& workload, std::uint64_t seed,
                       double seconds, bool trace, const mcs::Json& reference) {
  const int variant = static_cast<int>(seed % kVariants);
  const Workload w = make_workload(workload, variant);
  const mcs::Json& ref =
      reference.at(workload).at(static_cast<std::size_t>(variant));
  return trace ? run_traced(w, ref) : run_untraced(w, ref, seconds);
}

mcs::Json make_reference() {
  mcs::Json out = mcs::Json::object();
  for (const char* name : {"paper_sweep", "metro", "dense_poi"}) {
    mcs::Json variants = mcs::Json::array();
    for (int v = 0; v < kVariants; ++v) {
      const Workload w = make_workload(name, v);
      std::vector<std::uint64_t> digests;
      for (const Job& j : w.jobs) {
        const exp::RepetitionResult rep = exp::run_repetition(j.cfg, j.seed);
        const std::string bad = check_campaign(j.cfg, rep.campaign, rep.rounds);
        if (!bad.empty()) {
          throw std::runtime_error(std::string(name) + ": " + bad);
        }
        digests.push_back(campaign_digest(rep.campaign, rep.rounds.size()));
      }
      mcs::Json chunks = mcs::Json::array();
      for (const std::uint64_t d : chunk_digests(digests, w.chunk)) {
        chunks.push_back(mcs::Json(hex_digest(d)));
      }
      mcs::Json entry = mcs::Json::object();
      entry["chunks"] = std::move(chunks);
      if (!w.sweep.empty()) {
        mcs::Json aggregates = mcs::Json::array();
        for (const exp::ExperimentConfig& cfg : w.sweep) {
          const exp::AggregateResult agg = exp::run_experiment(cfg);
          const std::string bad = check_aggregate(cfg, agg);
          if (!bad.empty() || !agg.failed_reps.empty()) {
            throw std::runtime_error(std::string(name) + " sweep: " + bad);
          }
          aggregates.push_back(mcs::Json(hex_digest(aggregate_digest(agg))));
        }
        entry["aggregate"] = std::move(aggregates);
      }
      variants.push_back(std::move(entry));
      std::fprintf(stderr, "reference: %s variant %d done\n", name, v);
    }
    out[name] = std::move(variants);
  }
  return out;
}

}  // namespace perfbench
