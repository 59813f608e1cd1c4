#include "exp/runner.h"

#include <sys/stat.h>

#include <cstdio>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/checkpoint.h"
#include "sim/serialize.h"

namespace mcs::exp {

namespace {

sim::Simulator build_simulator(const ExperimentConfig& cfg, std::uint64_t seed,
                               select::SelectorKind selector_kind,
                               const MechanismFactory* factory) {
  Rng rng(seed);
  model::World world = sim::generate_world(cfg.scenario, rng);

  Rng mech_rng = rng.split(0xfeed);
  std::unique_ptr<incentive::IncentiveMechanism> mechanism =
      factory != nullptr
          ? (*factory)(world, mech_rng)
          : incentive::make_mechanism(cfg.mechanism, world, cfg.mech_params,
                                      mech_rng);
  auto selector = select::make_selector(selector_kind, cfg.dp_candidate_cap);

  sim::SimulatorParams sp;
  sp.max_rounds = cfg.max_rounds;
  sp.platform_budget = cfg.mech_params.platform_budget;
  sp.order_seed = seed ^ 0x5bd1e995;
  // Fault draws mix the plan seed with order_seed (itself a pure function
  // of the repetition seed), so every repetition faults independently.
  sp.faults = cfg.faults;
  sp.plan_threads = cfg.plan_threads;
  sp.reprice_threads = cfg.reprice_threads;
  sp.shards = cfg.shards;
  sp.phase_timers = cfg.phase_timers;
  sp.memo.enabled = cfg.plan_memo;
  return sim::Simulator(std::move(world), std::move(mechanism),
                        std::move(selector), sp,
                        sim::make_mobility(cfg.mobility, cfg.drift_sigma));
}

/// Rebuild a simulator for repetition `seed` from a checkpoint. Replays the
/// construction-time draws exactly as build_simulator does — world
/// generation consumes `rng` and the mechanism stream splits from the
/// post-generation state — so a mechanism whose constructor draws (fixed's
/// levels) receives the same rng the original did; restore_state then
/// overlays the serialized pricing state. The freshly generated world is
/// only used for mechanism construction (it equals the campaign's initial
/// world); the simulator itself resumes from the checkpointed snapshot.
sim::Simulator resume_simulator(const ExperimentConfig& cfg,
                                std::uint64_t seed,
                                const MechanismFactory* factory,
                                const sim::CampaignCheckpoint& ckpt) {
  Rng rng(seed);
  model::World fresh = sim::generate_world(cfg.scenario, rng);
  Rng mech_rng = rng.split(0xfeed);
  std::unique_ptr<incentive::IncentiveMechanism> mechanism =
      factory != nullptr
          ? (*factory)(fresh, mech_rng)
          : incentive::make_mechanism(cfg.mechanism, fresh, cfg.mech_params,
                                      mech_rng);
  auto selector = select::make_selector(cfg.selector, cfg.dp_candidate_cap);
  return sim::Simulator::resume(
      ckpt, std::move(mechanism), std::move(selector),
      sim::make_mobility(cfg.mobility, cfg.drift_sigma));
}

/// Identity of one repetition under one experiment config, stamped into
/// every checkpoint it writes. Sweeps reuse a single --checkpoint-dir across
/// sweep points, so <dir>/rep-<n>/ can hold leftover generations from a
/// *different* experiment (other user count, budget, seed, ...) that would
/// decode fine and pass the simulator's name checks — resuming one would
/// graft another campaign's trajectory into this aggregate. Everything that
/// determines the campaign's trajectory goes into the fingerprint;
/// bit-identity-neutral knobs (threads, plan_threads, reprice_threads,
/// shards, memo) stay out so a legitimate crash recovery at a different
/// worker count still resumes. A custom MechanismFactory is opaque and
/// fingerprints as "factory": callers sweeping *across* factories must use
/// distinct checkpoint dirs.
Json repetition_provenance(const ExperimentConfig& cfg, std::uint64_t seed,
                           const MechanismFactory* factory) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(seed));
  Json::Object o;
  o["seed"] = Json(std::string(hex));
  o["scenario"] = sim::scenario_to_json(cfg.scenario);
  o["mechanism"] =
      Json(factory != nullptr ? std::string("factory")
                              : std::to_string(static_cast<int>(cfg.mechanism)));
  Json::Object mp;
  mp["platform_budget"] = Json(cfg.mech_params.platform_budget);
  mp["lambda"] = Json(cfg.mech_params.lambda);
  mp["demand_levels"] = Json(cfg.mech_params.demand_levels);
  mp["steered_rc"] = Json(cfg.mech_params.steered_rc);
  mp["steered_mu"] = Json(cfg.mech_params.steered_mu);
  mp["steered_delta"] = Json(cfg.mech_params.steered_delta);
  mp["participation_target"] = Json(cfg.mech_params.participation_target);
  mp["participation_band"] = Json(cfg.mech_params.participation_band);
  o["mech_params"] = Json(std::move(mp));
  o["selector"] = Json(static_cast<int>(cfg.selector));
  o["dp_candidate_cap"] = Json(cfg.dp_candidate_cap);
  o["mobility"] = Json(static_cast<int>(cfg.mobility));
  o["drift_sigma"] = Json(cfg.drift_sigma);
  o["max_rounds"] = Json(cfg.max_rounds);
  Json::Object f;
  f["dropout_prob"] = Json(cfg.faults.dropout_prob);
  f["abandon_prob"] = Json(cfg.faults.abandon_prob);
  f["upload_loss_prob"] = Json(cfg.faults.upload_loss_prob);
  f["corruption_prob"] = Json(cfg.faults.corruption_prob);
  f["withdraw_prob"] = Json(cfg.faults.withdraw_prob);
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(cfg.faults.seed));
  f["seed"] = Json(std::string(hex));
  o["faults"] = Json(std::move(f));
  return Json(std::move(o));
}

void mkdir_ignore_exists(const std::string& path) {
  // Failures other than EEXIST surface later as the writer's opendir error,
  // with a better message than mkdir's would be.
  ::mkdir(path.c_str(), 0755);
}

/// One repetition attempt. `rep` >= 0 enables the per-rep checkpoint
/// directory when the config asks for checkpointing; run_repetition passes
/// -1 (a standalone replay has no rep slot to resume).
RepetitionResult run_one(const ExperimentConfig& cfg, std::uint64_t seed,
                         const MechanismFactory* factory, int rep) {
  const bool checkpointing = cfg.checkpoint_every > 0 &&
                             !cfg.checkpoint_dir.empty() && rep >= 0;
  std::optional<sim::Simulator> simulator;
  RepetitionResult result;
  if (!checkpointing) {
    simulator.emplace(build_simulator(cfg, seed, cfg.selector, factory));
    result.campaign = simulator->run();
    result.rounds = simulator->history();
    return result;
  }

  const std::string dir =
      cfg.checkpoint_dir + "/rep-" + std::to_string(rep);
  mkdir_ignore_exists(cfg.checkpoint_dir);
  mkdir_ignore_exists(dir);
  const Json provenance = repetition_provenance(cfg, seed, factory);
  if (sim::has_checkpoint(dir)) {
    try {
      const sim::LoadedCheckpoint loaded = sim::load_latest_checkpoint(dir);
      // A provenance mismatch is not corruption — the directory holds the
      // leftovers of a different sweep point, seed or config. Start fresh;
      // this run's generations supersede them.
      if (loaded.checkpoint.provenance.dump() == provenance.dump()) {
        simulator.emplace(
            resume_simulator(cfg, seed, factory, loaded.checkpoint));
      }
    } catch (const Error&) {
      // Every generation corrupt: degrade to the full same-seed rerun.
    }
  }
  if (!simulator) {
    simulator.emplace(build_simulator(cfg, seed, cfg.selector, factory));
  }

  sim::CheckpointWriter writer(dir);
  while (simulator->current_round() < cfg.max_rounds &&
         !simulator->all_tasks_closed()) {
    simulator->step();
    const Round done = simulator->current_round();
    if (done % cfg.checkpoint_every == 0 && done < cfg.max_rounds) {
      sim::CampaignCheckpoint ckpt = simulator->checkpoint();
      ckpt.scenario = sim::scenario_to_json(cfg.scenario);
      ckpt.provenance = provenance;
      writer.write(ckpt);
    }
  }
  result.campaign = simulator->summary();
  result.rounds = simulator->history();
  return result;
}

AggregateResult aggregate(const ExperimentConfig& cfg,
                          const MechanismFactory* factory) {
  MCS_CHECK(cfg.repetitions >= 1, "need at least one repetition");
  MCS_CHECK(cfg.max_attempts >= 1, "need at least one attempt per repetition");
  cfg.faults.validate();

  // Repetitions are fully independent (each a pure function of its seed), so
  // they fan out across workers into slots indexed by rep; the merge below
  // then runs on this thread in repetition order, making the aggregate
  // bit-identical to the serial threads=1 run whatever the thread count.
  //
  // A repetition that throws mcs::Error gets same-seed retries up to
  // cfg.max_attempts (shielding long sweeps from transient failures; with
  // checkpointing on, a retry resumes from the last good generation);
  // exhausting the budget marks the slot failed and the sweep carries on —
  // one bad repetition must not poison a campaign-hours sweep.
  struct Slot {
    RepetitionResult result;
    bool ok = false;
    std::string error;
    int attempts = 0;
  };
  const auto reps = static_cast<std::size_t>(cfg.repetitions);
  std::vector<Slot> slots(reps);
  parallel_for_each(cfg.threads, reps, [&](std::size_t rep) {
    const std::uint64_t seed = repetition_seed(cfg, static_cast<int>(rep));
    Slot& slot = slots[rep];
    for (int attempt = 0; attempt < cfg.max_attempts && !slot.ok; ++attempt) {
      if (attempt > 0 && cfg.retry_backoff) {
        cfg.retry_backoff(static_cast<int>(rep), attempt);
      }
      slot.attempts = attempt + 1;
      try {
        if (cfg.repetition_probe) {
          cfg.repetition_probe(static_cast<int>(rep), attempt);
        }
        slot.result = run_one(cfg, seed, factory, static_cast<int>(rep));
        slot.ok = true;
      } catch (const Error& e) {
        slot.error = e.what();
      }
    }
  });

  AggregateResult agg;
  const auto rounds = static_cast<std::size_t>(cfg.max_rounds);
  agg.round_new_measurements.resize(rounds);
  agg.round_coverage.resize(rounds);
  agg.round_completeness.resize(rounds);
  agg.round_mean_profit.resize(rounds);
  agg.round_mean_reward.resize(rounds);

  agg.rep_attempts.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    agg.rep_attempts.push_back(slots[rep].attempts);
    if (!slots[rep].ok) {
      agg.failed_reps.push_back({static_cast<int>(rep),
                                 repetition_seed(cfg, static_cast<int>(rep)),
                                 slots[rep].error});
      continue;
    }
    const RepetitionResult& r = slots[rep].result;
    agg.coverage.add(r.campaign.coverage_pct);
    agg.completeness.add(r.campaign.completeness_pct);
    agg.tasks_completed.add(r.campaign.tasks_completed_pct);
    agg.avg_measurements.add(r.campaign.avg_measurements);
    agg.measurement_variance.add(r.campaign.measurement_variance);
    agg.reward_per_measurement.add(r.campaign.avg_reward_per_measurement);
    agg.total_paid.add(r.campaign.total_paid);
    agg.overdraft.add(r.campaign.budget_overdraft);
    agg.reward_gini.add(r.campaign.reward_gini);
    agg.reward_jain.add(r.campaign.reward_jain);
    agg.active_fraction.add(r.campaign.active_user_fraction);
    agg.dropped_users.add(r.campaign.dropped_user_rounds);
    agg.abandoned_tours.add(r.campaign.abandoned_tours);
    agg.lost_measurements.add(r.campaign.lost_measurements);
    agg.wasted_travel.add(r.campaign.wasted_travel);

    double last_cov = 0.0;
    double last_compl = 0.0;
    for (std::size_t k = 0; k < rounds; ++k) {
      if (k < r.rounds.size()) {
        const sim::RoundMetrics& rm = r.rounds[k];
        last_cov = rm.coverage_pct;
        last_compl = rm.completeness_pct;
        agg.round_new_measurements[k].add(rm.new_measurements);
        agg.round_mean_profit[k].add(rm.mean_user_profit);
        agg.round_mean_reward[k].add(rm.mean_open_reward);
      } else {
        // Campaign closed early: no further activity (and no further
        // prices — a closed campaign is excluded from the mean-reward
        // aggregate rather than dragged in as a zero-price round; the
        // per-round RunningStats count tracks how many campaigns were
        // still live).
        agg.round_new_measurements[k].add(0.0);
        agg.round_mean_profit[k].add(0.0);
      }
      agg.round_coverage[k].add(last_cov);
      agg.round_completeness[k].add(last_compl);
    }
  }
  MCS_CHECK(agg.failed_reps.size() < reps,
            "every repetition failed (first error: " +
                (agg.failed_reps.empty() ? std::string("none")
                                         : agg.failed_reps.front().error) +
                ")");
  return agg;
}

}  // namespace

RepetitionResult run_repetition(const ExperimentConfig& cfg,
                                std::uint64_t seed) {
  return run_one(cfg, seed, nullptr, /*rep=*/-1);
}

std::uint64_t repetition_seed(const ExperimentConfig& cfg, int rep) {
  MCS_CHECK(rep >= 0, "repetition index must be non-negative");
  // Spread repetition seeds with SplitMix so neighboring reps do not share
  // low-bit structure.
  SplitMix64 sm(cfg.seed + 0x9e3779b97f4a7c15ULL *
                               static_cast<std::uint64_t>(rep + 1));
  return sm.next();
}

AggregateResult run_experiment(const ExperimentConfig& cfg) {
  return aggregate(cfg, nullptr);
}

AggregateResult run_experiment_with(const ExperimentConfig& cfg,
                                    const MechanismFactory& factory) {
  return aggregate(cfg, &factory);
}

DpVsGreedyResult run_dp_vs_greedy(const ExperimentConfig& cfg, Round at_round) {
  MCS_CHECK(at_round >= 1 && at_round <= cfg.max_rounds,
            "comparison round out of range");
  MCS_CHECK(cfg.repetitions >= 1, "need at least one repetition");
  // Same fan-out/ordered-merge scheme as aggregate(): each repetition fills
  // its own slot of per-user profit pairs, then the stats accumulate in
  // repetition order. Selectors are built per repetition: the DP's scratch
  // arena makes select() non-reentrant, so workers must not share one
  // (DESIGN.md §7 threading contract).
  struct RepProfits {
    std::vector<Money> dp;
    std::vector<Money> greedy;
  };
  const auto reps = static_cast<std::size_t>(cfg.repetitions);
  std::vector<RepProfits> per_rep(reps);
  parallel_for_each(cfg.threads, reps, [&](std::size_t rep) {
    const auto dp = select::make_selector(select::SelectorKind::kDp,
                                          cfg.dp_candidate_cap);
    const auto greedy = select::make_selector(select::SelectorKind::kGreedy);
    const std::uint64_t seed = repetition_seed(cfg, static_cast<int>(rep));
    sim::Simulator simulator =
        build_simulator(cfg, seed, select::SelectorKind::kDp, nullptr);
    for (Round k = 1; k < at_round; ++k) simulator.step();
    RepProfits& slot = per_rep[rep];
    for (const select::SelectionInstance& inst : simulator.peek_instances()) {
      slot.dp.push_back(dp->select(inst).profit());
      slot.greedy.push_back(greedy->select(inst).profit());
    }
  });

  DpVsGreedyResult out;
  for (const RepProfits& r : per_rep) {
    for (std::size_t i = 0; i < r.dp.size(); ++i) {
      out.dp_profit.add(r.dp[i]);
      out.greedy_profit.add(r.greedy[i]);
      out.differences.push_back(r.dp[i] - r.greedy[i]);
    }
  }
  return out;
}

}  // namespace mcs::exp
