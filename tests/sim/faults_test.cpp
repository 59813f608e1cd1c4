// The fault-injection layer (sim/faults.h): the injector's draws are pure
// hashes (deterministic, order-free, thread-free), a zero-rate plan is
// byte-for-byte invisible, and the headline degradation story — lost
// uploads re-inflate demand because progress never advances — holds in
// full campaigns.
#include "sim/faults.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "exp/runner.h"
#include "sim/simulator.h"

namespace mcs::sim {
namespace {

FaultPlan plan_with(double dropout = 0.0, double abandon = 0.0,
                    double loss = 0.0, double corrupt = 0.0,
                    double withdraw = 0.0, std::uint64_t seed = 7) {
  FaultPlan p;
  p.dropout_prob = dropout;
  p.abandon_prob = abandon;
  p.upload_loss_prob = loss;
  p.corruption_prob = corrupt;
  p.withdraw_prob = withdraw;
  p.seed = seed;
  return p;
}

TEST(FaultPlan, DefaultPlanInjectsNothing) {
  const FaultPlan p;
  EXPECT_FALSE(p.any());
  EXPECT_NO_THROW(p.validate());
  // seed alone does not arm the injector.
  FaultPlan seeded;
  seeded.seed = 12345;
  EXPECT_FALSE(seeded.any());
}

TEST(FaultPlan, ValidateRejectsOutOfRangeRates) {
  EXPECT_THROW(plan_with(-0.1).validate(), Error);
  EXPECT_THROW(plan_with(0, 1.5).validate(), Error);
  EXPECT_THROW(plan_with(0, 0, 2.0).validate(), Error);
  EXPECT_THROW(plan_with(0, 0, 0, -1.0).validate(), Error);
  EXPECT_THROW(plan_with(0, 0, 0, 0, 1.0001).validate(), Error);
  EXPECT_NO_THROW(plan_with(1.0, 1.0, 1.0, 1.0, 1.0).validate());
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires) {
  const FaultInjector never(plan_with(0, 0, 0, 0, 0), /*campaign_seed=*/3);
  const FaultInjector always(plan_with(1, 1, 1, 1, 1), /*campaign_seed=*/3);
  for (UserId u = 0; u < 50; ++u) {
    for (Round k = 1; k <= 20; ++k) {
      EXPECT_FALSE(never.drop_user(u, k));
      EXPECT_TRUE(always.drop_user(u, k));
      EXPECT_FALSE(never.withdraw_task(u, k));
      EXPECT_TRUE(always.withdraw_task(u, k));
      EXPECT_FALSE(never.lose_upload(u, u + 1, k));
      EXPECT_TRUE(always.lose_upload(u, u + 1, k));
      EXPECT_FALSE(never.corrupt_upload(u, u + 1, k));
      EXPECT_TRUE(always.corrupt_upload(u, u + 1, k));
    }
  }
}

TEST(FaultInjector, LegsCompletedBoundsAndNoAbandonIdentity) {
  const FaultInjector clean(plan_with(0, 0), 9);
  const FaultInjector flaky(plan_with(0, 1.0), 9);
  for (UserId u = 0; u < 30; ++u) {
    for (int planned = 1; planned <= 6; ++planned) {
      EXPECT_EQ(clean.legs_completed(u, 4, planned), planned);
      const int walked = flaky.legs_completed(u, 4, planned);
      EXPECT_GE(walked, 0);
      EXPECT_LT(walked, planned) << "abandoned tour must lose >= 1 leg";
    }
  }
  EXPECT_EQ(flaky.legs_completed(0, 1, 0), 0);  // empty tour stays empty
}

TEST(FaultInjector, DrawsArePureFunctionsOfTheCell) {
  const FaultPlan plan = plan_with(0.4, 0.3, 0.2, 0.2, 0.1, /*seed=*/11);
  const FaultInjector a(plan, 77);
  const FaultInjector b(plan, 77);  // independent instance, same identity
  for (UserId u = 0; u < 40; ++u) {
    for (Round k = 1; k <= 10; ++k) {
      EXPECT_EQ(a.drop_user(u, k), b.drop_user(u, k));
      EXPECT_EQ(a.drop_user(u, k), a.drop_user(u, k)) << "re-query changed";
      EXPECT_EQ(a.legs_completed(u, k, 5), b.legs_completed(u, k, 5));
      EXPECT_EQ(a.lose_upload(u, u % 7, k), b.lose_upload(u, u % 7, k));
      EXPECT_EQ(a.corrupt_upload(u, u % 7, k), b.corrupt_upload(u, u % 7, k));
    }
  }
}

TEST(FaultInjector, PlanSeedAndCampaignSeedBothShiftThePattern) {
  const FaultPlan base = plan_with(0.5, 0, 0, 0, 0, /*seed=*/1);
  FaultPlan reseeded = base;
  reseeded.seed = 2;
  const FaultInjector a(base, 77);
  const FaultInjector b(reseeded, 77);
  const FaultInjector c(base, 78);
  int ab_diff = 0;
  int ac_diff = 0;
  for (UserId u = 0; u < 200; ++u) {
    for (Round k = 1; k <= 10; ++k) {
      ab_diff += a.drop_user(u, k) != b.drop_user(u, k);
      ac_diff += a.drop_user(u, k) != c.drop_user(u, k);
    }
  }
  EXPECT_GT(ab_diff, 0) << "plan seed ignored";
  EXPECT_GT(ac_diff, 0) << "campaign seed ignored";
}

TEST(FaultInjector, DropRateIsRoughlyHonored) {
  const FaultInjector inj(plan_with(0.25), 5);
  int fired = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    fired += inj.drop_user(i % 500, 1 + i / 500);
  }
  const double rate = static_cast<double>(fired) / trials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

// ---------------------------------------------------------------------------
// Campaign-level properties (through the experiment runner).

exp::ExperimentConfig small_config() {
  exp::ExperimentConfig cfg;
  cfg.scenario.num_users = 40;
  cfg.scenario.num_tasks = 10;
  cfg.scenario.required_measurements = 8;
  cfg.repetitions = 4;
  cfg.max_rounds = 10;
  cfg.selector = select::SelectorKind::kGreedy;
  cfg.threads = 1;
  return cfg;
}

void expect_stats_identical(const RunningStats& a, const RunningStats& b,
                            const char* what) {
  ASSERT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
}

void expect_aggregate_identical(const exp::AggregateResult& a,
                                const exp::AggregateResult& b) {
  expect_stats_identical(a.coverage, b.coverage, "coverage");
  expect_stats_identical(a.completeness, b.completeness, "completeness");
  expect_stats_identical(a.total_paid, b.total_paid, "total_paid");
  expect_stats_identical(a.reward_gini, b.reward_gini, "reward_gini");
  expect_stats_identical(a.active_fraction, b.active_fraction,
                         "active_fraction");
  expect_stats_identical(a.dropped_users, b.dropped_users, "dropped_users");
  expect_stats_identical(a.abandoned_tours, b.abandoned_tours,
                         "abandoned_tours");
  expect_stats_identical(a.lost_measurements, b.lost_measurements,
                         "lost_measurements");
  expect_stats_identical(a.wasted_travel, b.wasted_travel, "wasted_travel");
  ASSERT_EQ(a.round_new_measurements.size(), b.round_new_measurements.size());
  for (std::size_t k = 0; k < a.round_new_measurements.size(); ++k) {
    expect_stats_identical(a.round_new_measurements[k],
                           b.round_new_measurements[k], "round_new");
    expect_stats_identical(a.round_completeness[k], b.round_completeness[k],
                           "round_completeness");
    expect_stats_identical(a.round_mean_reward[k], b.round_mean_reward[k],
                           "round_mean_reward");
  }
}

TEST(FaultedCampaign, ZeroRatePlanIsByteInvisibleWhateverItsSeed) {
  const exp::AggregateResult base = run_experiment(small_config());
  exp::ExperimentConfig seeded = small_config();
  seeded.faults.seed = 0xdeadbeef;  // armed seed, zero rates
  expect_aggregate_identical(base, run_experiment(seeded));
}

TEST(FaultedCampaign, FaultedAggregateBitIdenticalAcrossThreadCounts) {
  exp::ExperimentConfig serial = small_config();
  serial.faults = plan_with(0.2, 0.15, 0.2, 0.1, 0.05);
  exp::ExperimentConfig threaded = serial;
  threaded.threads = 8;
  expect_aggregate_identical(run_experiment(serial), run_experiment(threaded));
}

TEST(FaultedCampaign, FullDropoutIdlesEveryWorker) {
  exp::ExperimentConfig cfg = small_config();
  cfg.repetitions = 1;
  cfg.faults = plan_with(/*dropout=*/1.0);
  const exp::RepetitionResult rep =
      run_repetition(cfg, repetition_seed(cfg, 0));
  EXPECT_EQ(rep.campaign.total_measurements, 0);
  EXPECT_EQ(rep.campaign.total_paid, 0.0);
  EXPECT_EQ(rep.campaign.dropped_user_rounds,
            static_cast<int>(rep.rounds.size()) * cfg.scenario.num_users);
  for (const RoundMetrics& rm : rep.rounds) {
    EXPECT_EQ(rm.active_users, 0);
    EXPECT_EQ(rm.dropped_users, cfg.scenario.num_users);
  }
}

TEST(FaultedCampaign, FullUploadLossEarnsNothingAndAdvancesNothing) {
  exp::ExperimentConfig cfg = small_config();
  cfg.repetitions = 1;
  cfg.faults = plan_with(0, 0, /*loss=*/1.0);
  const exp::RepetitionResult rep =
      run_repetition(cfg, repetition_seed(cfg, 0));
  EXPECT_EQ(rep.campaign.total_measurements, 0);
  EXPECT_EQ(rep.campaign.total_paid, 0.0);
  EXPECT_EQ(rep.campaign.completeness_pct, 0.0);
  EXPECT_GT(rep.campaign.lost_measurements, 0);
  EXPECT_GT(rep.campaign.wasted_travel, 0.0);
  // Workers still walked (and paid) for tours whose uploads vanished.
  bool someone_lost_money = false;
  for (const RoundMetrics& rm : rep.rounds) {
    for (const Money p : rm.user_profit) someone_lost_money |= p < 0.0;
  }
  EXPECT_TRUE(someone_lost_money);
}

TEST(FaultedCampaign, FullWithdrawalPublishesNoTasks) {
  exp::ExperimentConfig cfg = small_config();
  cfg.repetitions = 1;
  cfg.faults = plan_with(0, 0, 0, 0, /*withdraw=*/1.0);
  const exp::RepetitionResult rep =
      run_repetition(cfg, repetition_seed(cfg, 0));
  EXPECT_EQ(rep.campaign.total_measurements, 0);
  EXPECT_GT(rep.campaign.withdrawn_task_rounds, 0);
  for (const RoundMetrics& rm : rep.rounds) {
    // Every task the round would have published got glitched out (only
    // tasks that are open — unexpired with a positive reward — count as
    // withdrawable), so nothing is selectable and nothing is sensed.
    EXPECT_EQ(rm.open_tasks, 0);
    EXPECT_EQ(rm.new_measurements, 0);
    EXPECT_EQ(rm.active_users, 0);
  }
}

TEST(FaultedCampaign, LostUploadsReInflateOnDemandRewards) {
  // The degradation story: with the on-demand mechanism, lost uploads leave
  // pi_i behind, the stateless demand indicator keeps demand (hence the
  // published reward) high, while a clean campaign's progress deflates it.
  exp::ExperimentConfig clean = small_config();
  clean.repetitions = 1;
  exp::ExperimentConfig lossy = clean;
  lossy.faults = plan_with(0, 0, /*loss=*/1.0);
  const exp::RepetitionResult clean_rep =
      run_repetition(clean, repetition_seed(clean, 0));
  const exp::RepetitionResult lossy_rep =
      run_repetition(lossy, repetition_seed(lossy, 0));
  ASSERT_GE(clean_rep.rounds.size(), 3u);
  ASSERT_GE(lossy_rep.rounds.size(), 3u);
  // Round 1 prices are identical (no history yet, same world).
  EXPECT_EQ(clean_rep.rounds[0].mean_open_reward,
            lossy_rep.rounds[0].mean_open_reward);
  // By round 3 the lossy campaign pays strictly more per open task.
  EXPECT_GT(lossy_rep.rounds[2].mean_open_reward,
            clean_rep.rounds[2].mean_open_reward);
}

TEST(FaultedCampaign, EventTraceFlagsLostAndCorruptedUploads) {
  exp::ExperimentConfig cfg = small_config();
  cfg.faults = plan_with(0, 0, /*loss=*/0.4, /*corrupt=*/0.4);
  Rng rng(repetition_seed(cfg, 0));
  model::World world = generate_world(cfg.scenario, rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism = incentive::make_mechanism(cfg.mechanism, world,
                                             cfg.mech_params, mech_rng);
  SimulatorParams sp;
  sp.max_rounds = cfg.max_rounds;
  sp.platform_budget = cfg.mech_params.platform_budget;
  sp.order_seed = repetition_seed(cfg, 0) ^ 0x5bd1e995;
  sp.record_events = true;
  sp.faults = cfg.faults;
  Simulator simulator(std::move(world), std::move(mechanism),
                      select::make_selector(cfg.selector, cfg.dp_candidate_cap),
                      sp);
  const CampaignMetrics m = simulator.run();
  ASSERT_GT(m.lost_measurements, 0);
  ASSERT_GT(m.corrupted_measurements, 0);
  long long lost = 0;
  long long corrupted = 0;
  long long accepted = 0;
  for (const SensingEvent& e : simulator.events().events()) {
    if (!e.accepted) {
      ++lost;
      EXPECT_EQ(e.reward, 0.0) << "lost uploads must not be paid";
    }
    accepted += e.accepted;
    corrupted += e.corrupted;
  }
  EXPECT_EQ(lost, m.lost_measurements);
  EXPECT_EQ(corrupted, m.corrupted_measurements);
  EXPECT_EQ(accepted, m.total_measurements);
}

}  // namespace
}  // namespace mcs::sim
