// The benchmark's own tests (perfbench --self-test, run by test_perfbench.py):
// the digest sees a one-measurement change, the traced layers and the
// benchmark's campaign builder reproduce exp::run_repetition bit for bit,
// and the invariant checks reject what they should.
#include <cmath>
#include <string>
#include <vector>

#include "campaign.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace exp = mcs::exp;
namespace mi = mcs::incentive;

struct Case {
  const char* label;
  exp::ExperimentConfig cfg;
};

// Small versions of the three workloads' configurations.
std::vector<Case> cases() {
  std::vector<Case> out;
  for (const mi::MechanismKind kind :
       {mi::MechanismKind::kOnDemand, mi::MechanismKind::kFixed,
        mi::MechanismKind::kSteered}) {
    exp::ExperimentConfig cfg;
    cfg.mechanism = kind;
    set_sim_workers(cfg, 1, /*sharded=*/false);
    out.push_back({mi::mechanism_name(kind), cfg});
  }
  exp::ExperimentConfig city;
  city.scenario.num_users = 4000;
  city.scenario.num_tasks = 400;
  city.scenario.area_side = 6000.0;
  city.scenario.required_measurements = 60;
  city.mech_params.platform_budget = 3.0 * 60.0 * 400.0;
  city.selector = mcs::select::SelectorKind::kGreedy;
  city.max_rounds = 4;
  city.faults.dropout_prob = 0.05;
  city.faults.upload_loss_prob = 0.02;
  city.faults.abandon_prob = 0.02;
  set_sim_workers(city, 4, /*sharded=*/true);
  out.push_back({"sharded greedy with faults", city});
  exp::ExperimentConfig memo;
  memo.scenario.num_users = 1500;
  memo.scenario.num_tasks = 40;
  memo.scenario.area_side = 1500.0;
  memo.scenario.home_sites = 16;
  memo.scenario.user_budget_quantum_s = 150.0;
  memo.scenario.required_measurements = 200;
  memo.mech_params.platform_budget = 3.0 * 200.0 * 40.0;
  memo.plan_memo = true;
  set_sim_workers(memo, 4, /*sharded=*/true);
  out.push_back({"sharded DP with memo", memo});
  return out;
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> fails;
  auto expect = [&fails](bool ok, const std::string& what) {
    if (!ok) fails.push_back(what);
  };

  for (const Case& c : cases()) {
    const std::string label = c.label;
    const std::uint64_t seed = 0x5e1f7e57ULL;
    const exp::RepetitionResult lib = exp::run_repetition(c.cfg, seed);
    const std::uint64_t want = campaign_digest(lib.campaign, lib.rounds.size());
    expect(check_campaign(c.cfg, lib.campaign, lib.rounds).empty(),
           label + ": invariants fail on a library campaign");

    auto plain = build_campaign(c.cfg, seed, nullptr);
    run_campaign(*plain, c.cfg.max_rounds, nullptr);
    expect(campaign_digest(plain->summary(), plain->history().size()) == want,
           label + ": builder digest differs from exp::run_repetition");

    for (const int workers : {1, 4}) {
      exp::ExperimentConfig cfg = c.cfg;
      set_sim_workers(cfg, workers, c.cfg.shards != 0);
      Tracer tracer;
      auto traced = build_campaign(cfg, seed, nullptr, &tracer);
      std::vector<double> walls;
      run_campaign(*traced, cfg.max_rounds, &walls);
      const std::string at =
          label + " at " + std::to_string(workers) + " workers";
      const std::uint64_t got =
          campaign_digest(traced->summary(), traced->history().size());
      expect(got == want, at + ": traced digest differs from the untraced one");
      expect(walls.size() == lib.rounds.size(), at + ": round count differs");
      const SelectStats sel = tracer.select_totals();
      const IncentiveStats inc = tracer.incentive_totals();
      expect(sel.calls > 0 && sel.busy_s > 0.0,
             at + ": no select calls traced");
      expect(inc.update_calls == static_cast<long long>(walls.size()),
             at + ": one update_rewards per round expected");
      const bool steered = cfg.mechanism == mi::MechanismKind::kSteered;
      expect((inc.reprice_calls > 0) == steered,
             at + ": reprice calls only for the intra-round mechanism");
    }
  }

  // The digest sees any single-field change.
  {
    const exp::ExperimentConfig cfg = cases().front().cfg;
    const exp::RepetitionResult rep = exp::run_repetition(cfg, 7);
    const std::size_t n = rep.rounds.size();
    const std::uint64_t base = campaign_digest(rep.campaign, n);
    auto differs = [&](const char* what, auto&& mutate) {
      mcs::sim::CampaignMetrics m = rep.campaign;
      mutate(m);
      expect(campaign_digest(m, n) != base,
             std::string("digest misses a change to ") + what);
    };
    differs("one task's received count",
            [](auto& m) { ++m.per_task_received.back(); });
    differs("total_paid by one ulp", [](auto& m) {
      m.total_paid = std::nextafter(m.total_paid, 2.0 * m.total_paid + 1.0);
    });
    differs("total_measurements", [](auto& m) { ++m.total_measurements; });
    differs("lost_measurements", [](auto& m) { ++m.lost_measurements; });
    differs("plan memo hits", [](auto& m) { ++m.plan_exact_hits; });
    expect(campaign_digest(rep.campaign, n + 1) != base,
           "digest misses the round count");

    auto rejects = [&](const char* what, auto&& mutate) {
      mcs::sim::CampaignMetrics m = rep.campaign;
      std::vector<mcs::sim::RoundMetrics> rounds = rep.rounds;
      mutate(m, rounds);
      expect(!check_campaign(cfg, m, rounds).empty(),
             std::string("checks accept ") + what);
    };
    rejects("a payout over B", [&](auto& m, auto&) {
      m.total_paid = cfg.mech_params.platform_budget * 1.001;
    });
    rejects("an overdraft", [](auto& m, auto&) { m.budget_overdraft = 1e-6; });
    rejects("coverage above 100",
            [](auto& m, auto&) { m.coverage_pct = 100.5; });
    rejects("a round price below r0", [](auto&, auto& rounds) {
      rounds.front().mean_open_reward = 0.4;  // r0 = 0.5 in the paper setup
    });
    rejects("a round price above r0+lambda(N-1)", [](auto&, auto& rounds) {
      rounds.front().mean_open_reward = 2.6;
    });
  }

  // The sweep aggregate is thread-count invariant and passes its checks.
  {
    exp::ExperimentConfig cfg = cases().front().cfg;
    cfg.repetitions = 16;
    cfg.threads = 1;
    const exp::AggregateResult serial = exp::run_experiment(cfg);
    cfg.threads = 4;
    const exp::AggregateResult fanned = exp::run_experiment(cfg);
    expect(aggregate_digest(serial) == aggregate_digest(fanned),
           "aggregate digest differs between 1 and 4 runner threads");
    expect(check_aggregate(cfg, fanned).empty(), "aggregate invariants fail");
    cfg.seed += 1;
    const exp::AggregateResult other = exp::run_experiment(cfg);
    expect(aggregate_digest(other) != aggregate_digest(fanned),
           "aggregate digest misses a different sweep");
  }
  return fails;
}

}  // namespace perfbench
