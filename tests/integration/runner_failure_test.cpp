// Failure isolation in the experiment runner: a repetition that throws
// mcs::Error gets one same-seed retry, a repetition that keeps failing is
// recorded in failed_reps without poisoning any aggregate, and only a
// sweep where *every* repetition fails aborts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.h"
#include "exp/runner.h"
#include "incentive/mechanism.h"

namespace mcs::exp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.scenario.num_users = 40;
  cfg.scenario.num_tasks = 10;
  cfg.scenario.required_measurements = 8;
  cfg.repetitions = 5;
  cfg.max_rounds = 8;
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

void expect_aggregate_identical(const AggregateResult& a,
                                const AggregateResult& b) {
  expect_stats_identical(a.coverage, b.coverage, "coverage");
  expect_stats_identical(a.completeness, b.completeness, "completeness");
  expect_stats_identical(a.total_paid, b.total_paid, "total_paid");
  expect_stats_identical(a.active_fraction, b.active_fraction,
                         "active_fraction");
  ASSERT_EQ(a.round_new_measurements.size(), b.round_new_measurements.size());
  for (std::size_t k = 0; k < a.round_new_measurements.size(); ++k) {
    expect_stats_identical(a.round_new_measurements[k],
                           b.round_new_measurements[k], "round_new");
    expect_stats_identical(a.round_mean_reward[k], b.round_mean_reward[k],
                           "round_mean_reward");
  }
}

TEST(RunnerFailure, CleanSweepReportsNoFailedRepetitions) {
  EXPECT_TRUE(run_experiment(small_config()).failed_reps.empty());
}

TEST(RunnerFailure, TransientFailureIsRetriedWithTheSameSeed) {
  const AggregateResult base = run_experiment(small_config());

  ExperimentConfig flaky = small_config();
  std::atomic<int> first_attempts{0};
  flaky.repetition_probe = [&first_attempts](int rep, int attempt) {
    if (rep == 1 && attempt == 0) {
      ++first_attempts;
      throw Error("injected transient failure");
    }
  };
  const AggregateResult agg = run_experiment(flaky);
  EXPECT_EQ(first_attempts.load(), 1);
  EXPECT_TRUE(agg.failed_reps.empty())
      << "retried repetition must not be reported as failed";
  // The retry reruns the identical seed, so the sweep is indistinguishable
  // from one that never failed.
  expect_aggregate_identical(base, agg);
}

TEST(RunnerFailure, PersistentFailureLandsInFailedRepsWithoutPoisoning) {
  ExperimentConfig cfg = small_config();
  cfg.repetition_probe = [](int rep, int /*attempt*/) {
    if (rep == 1) throw Error("injected persistent failure");
  };
  const AggregateResult agg = run_experiment(cfg);

  ASSERT_EQ(agg.failed_reps.size(), 1u);
  EXPECT_EQ(agg.failed_reps[0].rep, 1);
  EXPECT_EQ(agg.failed_reps[0].seed, repetition_seed(cfg, 1));
  EXPECT_NE(agg.failed_reps[0].error.find("injected persistent failure"),
            std::string::npos);

  // Aggregates hold exactly the surviving repetitions…
  const auto survivors = static_cast<std::size_t>(cfg.repetitions) - 1;
  EXPECT_EQ(agg.coverage.count(), survivors);
  EXPECT_EQ(agg.total_paid.count(), survivors);

  // …and match a manual merge of those repetitions run standalone.
  RunningStats manual_paid;
  for (int rep = 0; rep < cfg.repetitions; ++rep) {
    if (rep == 1) continue;
    manual_paid.add(
        run_repetition(cfg, repetition_seed(cfg, rep)).campaign.total_paid);
  }
  EXPECT_EQ(agg.total_paid.mean(), manual_paid.mean());
  EXPECT_EQ(agg.total_paid.variance(), manual_paid.variance());
}

TEST(RunnerFailure, FailedSweepIsBitIdenticalAcrossThreadCounts) {
  ExperimentConfig serial = small_config();
  serial.repetition_probe = [](int rep, int /*attempt*/) {
    if (rep == 2) throw Error("injected persistent failure");
  };
  ExperimentConfig threaded = serial;
  threaded.threads = 8;
  const AggregateResult a = run_experiment(serial);
  const AggregateResult b = run_experiment(threaded);
  ASSERT_EQ(a.failed_reps.size(), 1u);
  ASSERT_EQ(b.failed_reps.size(), 1u);
  EXPECT_EQ(a.failed_reps[0].rep, b.failed_reps[0].rep);
  EXPECT_EQ(a.failed_reps[0].seed, b.failed_reps[0].seed);
  expect_aggregate_identical(a, b);
}

TEST(RunnerFailure, ProbeRunsOncePerAttempt) {
  ExperimentConfig cfg = small_config();
  std::atomic<int> calls{0};
  cfg.repetition_probe = [&calls](int /*rep*/, int /*attempt*/) { ++calls; };
  run_experiment(cfg);
  // No failures: exactly one attempt per repetition.
  EXPECT_EQ(calls.load(), cfg.repetitions);
}

TEST(RunnerFailure, AllRepetitionsFailingAborts) {
  ExperimentConfig cfg = small_config();
  cfg.repetition_probe = [](int /*rep*/, int /*attempt*/) {
    throw Error("injected total failure");
  };
  EXPECT_THROW(run_experiment(cfg), Error);
}

TEST(RunnerFailure, AttemptBudgetIsConfigurable) {
  // Fails attempts 0..2 of rep 1; with max_attempts=4 the fourth try lands.
  ExperimentConfig cfg = small_config();
  cfg.max_attempts = 4;
  cfg.repetition_probe = [](int rep, int attempt) {
    if (rep == 1 && attempt < 3) throw Error("injected transient failure");
  };
  const AggregateResult agg = run_experiment(cfg);
  EXPECT_TRUE(agg.failed_reps.empty());
  ASSERT_EQ(agg.rep_attempts.size(),
            static_cast<std::size_t>(cfg.repetitions));
  for (int rep = 0; rep < cfg.repetitions; ++rep) {
    EXPECT_EQ(agg.rep_attempts[static_cast<std::size_t>(rep)],
              rep == 1 ? 4 : 1)
        << "rep " << rep;
  }
  expect_aggregate_identical(run_experiment(small_config()), agg);
}

TEST(RunnerFailure, MaxAttemptsOneDisablesRetries) {
  ExperimentConfig cfg = small_config();
  cfg.max_attempts = 1;
  std::atomic<int> probes_for_rep1{0};
  cfg.repetition_probe = [&probes_for_rep1](int rep, int /*attempt*/) {
    if (rep == 1) {
      ++probes_for_rep1;
      throw Error("injected transient failure");
    }
  };
  const AggregateResult agg = run_experiment(cfg);
  EXPECT_EQ(probes_for_rep1.load(), 1) << "no retry with a budget of one";
  ASSERT_EQ(agg.failed_reps.size(), 1u);
  EXPECT_EQ(agg.failed_reps[0].rep, 1);
  EXPECT_EQ(agg.rep_attempts[1], 1);
}

TEST(RunnerFailure, ZeroAttemptBudgetRejected) {
  ExperimentConfig cfg = small_config();
  cfg.max_attempts = 0;
  EXPECT_THROW(run_experiment(cfg), Error);
}

TEST(RunnerFailure, BackoffHookFiresOnceBeforeEveryRetryOnly) {
  ExperimentConfig cfg = small_config();
  cfg.max_attempts = 3;
  cfg.repetition_probe = [](int rep, int attempt) {
    if (rep == 2 && attempt < 2) throw Error("injected transient failure");
  };
  // Deterministic injectable backoff: tests record the schedule instead of
  // sleeping, keeping wall-clock out of the suite.
  std::mutex mu;
  std::vector<std::pair<int, int>> calls;
  cfg.retry_backoff = [&mu, &calls](int rep, int attempt) {
    const std::lock_guard<std::mutex> lock(mu);
    calls.emplace_back(rep, attempt);
  };
  const AggregateResult agg = run_experiment(cfg);
  EXPECT_TRUE(agg.failed_reps.empty());
  const std::vector<std::pair<int, int>> expected = {{2, 1}, {2, 2}};
  EXPECT_EQ(calls, expected) << "backoff runs before retries, never attempt 0";
  EXPECT_EQ(agg.rep_attempts[2], 3);
}

// A mechanism wrapper that forwards everything to a real on-demand
// mechanism but throws once, mid-campaign, on the first attempt — the
// checkpoint-resume path then kicks in on the retry. The base's reward
// lookups read rewards_, so every forwarded mutation re-copies the inner
// vector.
class ThrowOnceMechanism final : public incentive::IncentiveMechanism {
 public:
  ThrowOnceMechanism(std::unique_ptr<incentive::IncentiveMechanism> inner,
                     Round crash_round, std::shared_ptr<std::atomic<bool>> armed,
                     std::shared_ptr<std::atomic<int>> round1_updates)
      : inner_(std::move(inner)),
        crash_round_(crash_round),
        armed_(std::move(armed)),
        round1_updates_(std::move(round1_updates)) {
    rewards_ = inner_->rewards();
  }

  const char* name() const override { return inner_->name(); }
  bool updates_within_round() const override {
    return inner_->updates_within_round();
  }

  void update_rewards(const model::World& world, Round k) override {
    if (k == 1) ++*round1_updates_;
    if (k == crash_round_ && armed_->exchange(false)) {
      throw Error("injected mid-campaign crash");
    }
    inner_->update_rewards(world, k);
    rewards_ = inner_->rewards();
  }

  void reprice(const model::World& world, Round k,
               const std::vector<std::size_t>& dirty_tasks) override {
    inner_->reprice(world, k, dirty_tasks);
    rewards_ = inner_->rewards();
  }

  Json state_to_json() const override { return inner_->state_to_json(); }
  void restore_state(const Json& state) override {
    inner_->restore_state(state);
    rewards_ = inner_->rewards();
  }

 private:
  std::unique_ptr<incentive::IncentiveMechanism> inner_;
  Round crash_round_;
  std::shared_ptr<std::atomic<bool>> armed_;
  std::shared_ptr<std::atomic<int>> round1_updates_;
};

/// Fresh empty checkpoint directory under the test temp root.
std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "mcs_runner_ckpt_XXXXXX";
  EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

TEST(RunnerCheckpoint, RetryResumesFromLastGoodCheckpointNotFromScratch) {
  ExperimentConfig cfg = small_config();
  cfg.repetitions = 1;
  cfg.checkpoint_every = 2;
  cfg.checkpoint_dir = make_temp_dir();

  auto armed = std::make_shared<std::atomic<bool>>(true);
  auto round1_updates = std::make_shared<std::atomic<int>>(0);
  const MechanismFactory factory = [&](const model::World& world, Rng& rng) {
    return std::make_unique<ThrowOnceMechanism>(
        incentive::make_mechanism(cfg.mechanism, world, cfg.mech_params, rng),
        /*crash_round=*/6, armed, round1_updates);
  };
  const AggregateResult agg = run_experiment_with(cfg, factory);
  EXPECT_TRUE(agg.failed_reps.empty());
  ASSERT_EQ(agg.rep_attempts.size(), 1u);
  EXPECT_EQ(agg.rep_attempts[0], 2);
  // The proof of resume-not-rerun: the retry started from the round-4
  // checkpoint, so round 1's reward update ran exactly once across both
  // attempts (a from-scratch retry would have run it twice).
  EXPECT_EQ(round1_updates->load(), 1);

  // And the recovered repetition contributes exactly the doubles an
  // uninterrupted run would: compare against the same config without the
  // crash or any checkpointing.
  ExperimentConfig clean = small_config();
  clean.repetitions = 1;
  auto never = std::make_shared<std::atomic<bool>>(false);
  auto clean_updates = std::make_shared<std::atomic<int>>(0);
  const MechanismFactory clean_factory = [&](const model::World& world,
                                             Rng& rng) {
    return std::make_unique<ThrowOnceMechanism>(
        incentive::make_mechanism(clean.mechanism, world, clean.mech_params,
                                  rng),
        /*crash_round=*/6, never, clean_updates);
  };
  const AggregateResult base = run_experiment_with(clean, clean_factory);
  expect_aggregate_identical(base, agg);
}

TEST(RunnerCheckpoint, CorruptCheckpointsDegradeToFullRerun) {
  // Same crash scenario, but every checkpoint generation is corrupted
  // before the retry can use it: the runner must fall back to a clean
  // same-seed rerun instead of failing the repetition.
  ExperimentConfig cfg = small_config();
  cfg.repetitions = 1;
  cfg.checkpoint_every = 2;
  cfg.checkpoint_dir = make_temp_dir();

  auto armed = std::make_shared<std::atomic<bool>>(true);
  auto round1_updates = std::make_shared<std::atomic<int>>(0);
  const std::string rep_dir = cfg.checkpoint_dir + "/rep-0";
  cfg.repetition_probe = [&](int /*rep*/, int attempt) {
    if (attempt == 0) return;
    // Before the retry runs: smash every generation on disk.
    const int rc = std::system(
        ("for f in " + rep_dir + "/gen-*.ckpt; do echo garbage > $f; done")
            .c_str());
    (void)rc;
  };
  const MechanismFactory factory = [&](const model::World& world, Rng& rng) {
    return std::make_unique<ThrowOnceMechanism>(
        incentive::make_mechanism(cfg.mechanism, world, cfg.mech_params, rng),
        /*crash_round=*/6, armed, round1_updates);
  };
  const AggregateResult agg = run_experiment_with(cfg, factory);
  EXPECT_TRUE(agg.failed_reps.empty());
  // Fallback rerun means round 1 executed on both attempts.
  EXPECT_EQ(round1_updates->load(), 2);
}

TEST(RunnerCheckpoint, StaleCheckpointsOfAnotherConfigAreNeverResumed) {
  // Sweeps reuse one --checkpoint-dir across sweep points, so rep-<n>/ can
  // hold finished generations from a *different* experiment. Those decode
  // fine and carry the same mechanism/selector names — only the provenance
  // stamp tells them apart. A fresh first attempt over a stale directory
  // must ignore them and produce exactly the clean run's doubles.
  const std::string dir = make_temp_dir();

  ExperimentConfig first = small_config();
  first.scenario.num_users = 24;  // a different sweep point
  first.repetitions = 2;
  first.checkpoint_every = 2;
  first.checkpoint_dir = dir;
  run_experiment(first);

  ExperimentConfig second = small_config();
  second.repetitions = 2;
  second.checkpoint_every = 2;
  second.checkpoint_dir = dir;  // same rep dirs, different scenario
  const AggregateResult over_stale = run_experiment(second);

  ExperimentConfig clean = small_config();
  clean.repetitions = 2;
  const AggregateResult base = run_experiment(clean);
  expect_aggregate_identical(base, over_stale);

  // A seed change alone is also a different campaign: same scenario, same
  // knobs, new seed over the directory the previous seed just filled.
  ExperimentConfig reseeded = small_config();
  reseeded.repetitions = 2;
  reseeded.seed = 4711;
  reseeded.checkpoint_every = 2;
  reseeded.checkpoint_dir = dir;
  ExperimentConfig reseeded_clean = small_config();
  reseeded_clean.repetitions = 2;
  reseeded_clean.seed = 4711;
  expect_aggregate_identical(run_experiment(reseeded_clean),
                             run_experiment(reseeded));
}

TEST(RunnerCheckpoint, ResumesAtAnotherWorkerCountBitIdentically) {
  // The round loop is bit-identical at any worker count — under stochastic
  // mobility too, whose draws come from per-user substreams — so the
  // provenance stamp leaves every worker knob out: generations written at
  // shards = 0 must resume at shards = 4 through the same --checkpoint-dir.
  const std::string dir = make_temp_dir();
  const auto config = [&dir](int shards, bool checkpointing) {
    ExperimentConfig cfg = small_config();
    cfg.repetitions = 2;
    cfg.mobility = sim::MobilityKind::kRandomWaypoint;
    cfg.shards = shards;
    cfg.max_attempts = 1;
    if (checkpointing) {
      cfg.checkpoint_every = 2;
      cfg.checkpoint_dir = dir;
    }
    return cfg;
  };
  const auto factory_for = [](const ExperimentConfig& cfg,
                              std::shared_ptr<std::atomic<bool>> armed,
                              std::shared_ptr<std::atomic<int>> updates) {
    return MechanismFactory(
        [&cfg, armed, updates](const model::World& world, Rng& rng) {
          return std::make_unique<ThrowOnceMechanism>(
              incentive::make_mechanism(cfg.mechanism, world,
                                        cfg.mech_params, rng),
              /*crash_round=*/3, armed, updates);
        });
  };

  // At shards = 0, repetition 0 crashes in round 3 with no retry left; its
  // round-2 generation stays on disk, and repetition 1 finishes.
  const ExperimentConfig crashing = config(0, true);
  auto armed = std::make_shared<std::atomic<bool>>(true);
  const AggregateResult first = run_experiment_with(
      crashing,
      factory_for(crashing, armed, std::make_shared<std::atomic<int>>(0)));
  ASSERT_EQ(first.failed_reps.size(), 1u);

  // At shards = 4 both repetitions resume from their last generation: round
  // 1 never runs again.
  const ExperimentConfig resuming = config(4, true);
  auto resumed_updates = std::make_shared<std::atomic<int>>(0);
  const AggregateResult resumed = run_experiment_with(
      resuming, factory_for(resuming, armed, resumed_updates));
  EXPECT_TRUE(resumed.failed_reps.empty());
  EXPECT_EQ(resumed_updates->load(), 0);

  const ExperimentConfig clean = config(0, false);
  const AggregateResult base = run_experiment_with(
      clean,
      factory_for(clean, std::make_shared<std::atomic<bool>>(false),
                  std::make_shared<std::atomic<int>>(0)));
  expect_aggregate_identical(base, resumed);
}

TEST(RunnerFailure, NonErrorExceptionsPropagate) {
  // Only mcs::Error means "this repetition failed" — anything else (say
  // std::bad_alloc) is a programming error and must escape untouched.
  ExperimentConfig cfg = small_config();
  cfg.repetition_probe = [](int rep, int /*attempt*/) {
    if (rep == 0) throw std::logic_error("not an mcs::Error");
  };
  EXPECT_THROW(run_experiment(cfg), std::logic_error);
}

}  // namespace
}  // namespace mcs::exp
