// The keystone durability contract: a campaign that is checkpointed every k
// rounds, torn down completely (simulator destroyed, checkpoint serialized
// to envelope bytes and decoded back) and resumed, is bit-identical to the
// uninterrupted run — across every mechanism kind, with and without
// injected campaign faults, at any plan-thread count and with the plan memo
// on or off. This is what makes crash recovery in the runner safe: a
// resumed repetition contributes exactly the doubles the original would
// have.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "incentive/mechanism.h"
#include "model/world.h"
#include "select/selector.h"
#include "sim/checkpoint.h"
#include "sim/scenario.h"
#include "sim/serialize.h"
#include "sim/simulator.h"

namespace mcs::sim {
namespace {

FaultPlan stress_faults() {
  FaultPlan f;
  f.dropout_prob = 0.15;
  f.abandon_prob = 0.2;
  f.upload_loss_prob = 0.1;
  f.seed = 7;
  return f;
}

ScenarioParams scenario() {
  ScenarioParams p;
  p.num_users = 30;
  p.num_tasks = 12;
  p.required_measurements = 6;
  return p;
}

/// Deterministic replay of the construction-time draws (exactly what the
/// experiment runner does on resume): world generation consumes the stream,
/// the mechanism splits from the post-generation state, so fixed's random
/// level draws come out identical every time.
std::unique_ptr<incentive::IncentiveMechanism> fresh_mechanism(
    incentive::MechanismKind kind) {
  Rng rng(4242);
  model::World world = generate_world(scenario(), rng);
  Rng mech_rng = rng.split(0xfeed);
  return incentive::make_mechanism(kind, world, {}, mech_rng);
}

SimulatorParams make_params(bool faults, int plan_threads, bool memo) {
  SimulatorParams sp;
  sp.max_rounds = 8;
  sp.record_events = true;
  sp.plan_threads = plan_threads;
  sp.memo.enabled = memo;
  if (faults) sp.faults = stress_faults();
  return sp;
}

Simulator make_simulator(incentive::MechanismKind kind, bool faults,
                         int plan_threads, bool memo) {
  Rng rng(4242);
  model::World world = generate_world(scenario(), rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism = incentive::make_mechanism(kind, world, {}, mech_rng);
  auto selector = select::make_selector(select::SelectorKind::kDp, 14);
  return Simulator(std::move(world), std::move(mechanism),
                   std::move(selector), make_params(faults, plan_threads, memo));
}

struct CampaignRun {
  std::vector<RoundMetrics> rounds;
  Money spent = 0.0;
  std::string world_json;
  std::string events_json;
  select::PlanMemoStats memo_stats;
};

CampaignRun finish(const Simulator& s) {
  CampaignRun out;
  out.rounds = s.history();
  out.spent = s.budget().spent();
  out.world_json = world_to_json(s.world()).dump(2);
  out.events_json = events_to_json(s.events()).dump(2);
  out.memo_stats = s.plan_memo_stats();
  return out;
}

CampaignRun run_straight(incentive::MechanismKind kind, bool faults,
                         int plan_threads, bool memo) {
  Simulator s = make_simulator(kind, faults, plan_threads, memo);
  s.run();
  return finish(s);
}

/// The hostile version: every `every` rounds the simulator is checkpointed
/// THROUGH THE ENVELOPE BYTES, destroyed, and a brand-new one resumed from
/// the decoded checkpoint with freshly constructed mechanism/selector.
CampaignRun run_with_resume(incentive::MechanismKind kind, bool faults,
                            int plan_threads, bool memo, Round every) {
  std::optional<Simulator> s(make_simulator(kind, faults, plan_threads, memo));
  const Round max_rounds = 8;
  while (s->current_round() < max_rounds && !s->all_tasks_closed()) {
    s->step();
    const Round done = s->current_round();
    if (done % every == 0 && done < max_rounds) {
      const std::string bytes = encode_checkpoint(s->checkpoint());
      s.reset();  // the original campaign is gone, bytes are all that's left
      const CampaignCheckpoint back = decode_checkpoint(bytes);
      s.emplace(Simulator::resume(
          back, fresh_mechanism(kind),
          select::make_selector(select::SelectorKind::kDp, 14)));
    }
  }
  return finish(*s);
}

void expect_bit_identical(const CampaignRun& a, const CampaignRun& b) {
  EXPECT_EQ(a.world_json, b.world_json);
  EXPECT_EQ(a.events_json, b.events_json);
  EXPECT_EQ(a.spent, b.spent);
  EXPECT_EQ(a.memo_stats.exact_hits, b.memo_stats.exact_hits);
  EXPECT_EQ(a.memo_stats.fixup_hits, b.memo_stats.fixup_hits);
  EXPECT_EQ(a.memo_stats.misses, b.memo_stats.misses);
  EXPECT_EQ(a.memo_stats.fallbacks, b.memo_stats.fallbacks);
  EXPECT_EQ(a.memo_stats.rounds, b.memo_stats.rounds);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t k = 0; k < a.rounds.size(); ++k) {
    EXPECT_EQ(rounds_to_json({a.rounds[k]}).dump(),
              rounds_to_json({b.rounds[k]}).dump())
        << "round " << k;
  }
}

// The full equivalence matrix: {fixed, on-demand, steered} x {clean,
// faulted} x plan_threads {1, 8} x memo {on, off}, checkpoint every 2
// rounds with teardown-and-resume at each one.
TEST(CheckpointResume, ResumedCampaignsBitIdenticalAcrossTheMatrix) {
  for (const auto kind :
       {incentive::MechanismKind::kFixed, incentive::MechanismKind::kOnDemand,
        incentive::MechanismKind::kSteered}) {
    for (const bool faults : {false, true}) {
      for (const int plan_threads : {1, 8}) {
        for (const bool memo : {false, true}) {
          SCOPED_TRACE(std::string(incentive::mechanism_name(kind)) +
                       (faults ? "/faults" : "/clean") + "/threads=" +
                       std::to_string(plan_threads) +
                       (memo ? "/memo" : "/nomemo"));
          const CampaignRun straight =
              run_straight(kind, faults, plan_threads, memo);
          const CampaignRun resumed =
              run_with_resume(kind, faults, plan_threads, memo, /*every=*/2);
          expect_bit_identical(straight, resumed);
        }
      }
    }
  }
}

// Resuming every single round is the worst case for drift (7 teardowns in
// an 8-round campaign) and must still be exact.
TEST(CheckpointResume, ResumeEveryRoundStillBitIdentical) {
  const auto kind = incentive::MechanismKind::kOnDemand;
  const CampaignRun straight = run_straight(kind, true, 1, false);
  const CampaignRun resumed = run_with_resume(kind, true, 1, false, 1);
  expect_bit_identical(straight, resumed);
}

// Cross-knob resume: a campaign checkpointed under plan_threads=1 resumed
// into a plan_threads=8 simulator (the checkpoint pins the knobs — params
// travel in the envelope, so the resumed run keeps the original's).
TEST(CheckpointResume, CheckpointCarriesItsOwnSimulatorParams) {
  Simulator s = make_simulator(incentive::MechanismKind::kOnDemand, true, 1,
                               false);
  s.step();
  s.step();
  const CampaignCheckpoint ckpt = s.checkpoint();
  EXPECT_EQ(ckpt.params.plan_threads, 1);
  EXPECT_EQ(ckpt.params.max_rounds, 8);
  EXPECT_TRUE(ckpt.params.record_events);
  EXPECT_EQ(ckpt.next_round, 3);
  EXPECT_EQ(ckpt.history.size(), 2u);
}

// Phase timers travel through the envelope: a resumed campaign's summary
// reports whole-campaign phase times, not just the post-resume slice.
TEST(CheckpointResume, PhaseTimersCarriedThroughCheckpoint) {
  Rng rng(4242);
  model::World world = generate_world(scenario(), rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mechanism =
      incentive::make_mechanism(incentive::MechanismKind::kOnDemand, world, {},
                                mech_rng);
  SimulatorParams sp = make_params(/*faults=*/false, /*plan_threads=*/1,
                                   /*memo=*/false);
  sp.phase_timers = true;
  sp.reprice_threads = 3;
  Simulator s(std::move(world), std::move(mechanism),
              select::make_selector(select::SelectorKind::kDp, 14), sp);
  s.step();
  s.step();
  const std::string bytes = encode_checkpoint(s.checkpoint());
  const CampaignCheckpoint back = decode_checkpoint(bytes);
  EXPECT_TRUE(back.params.phase_timers);
  // reprice_threads rides the same params envelope (it is bit-identity-
  // neutral, but the checkpoint pins the knobs it ran with).
  EXPECT_EQ(back.params.reprice_threads, 3);
  const double timed = back.phase_prepass_s + back.phase_plan_s +
                       back.phase_reprice_s + back.phase_commit_s;
  EXPECT_GT(timed, 0.0);
  Simulator resumed = Simulator::resume(
      back, fresh_mechanism(incentive::MechanismKind::kOnDemand),
      select::make_selector(select::SelectorKind::kDp, 14));
  resumed.step();
  const CampaignMetrics m = resumed.summary();
  // Cumulative across the teardown: the resumed round adds to the carried
  // timers instead of restarting them at zero.
  EXPECT_GE(m.phase_prepass_s + m.phase_plan_s + m.phase_reprice_s +
                m.phase_commit_s,
            timed);
  EXPECT_GT(m.phase_commit_s, back.phase_commit_s);
}

// A pre-phase-timer payload (no "phase_seconds" key) must decode with
// all-zero timers — the back-compat has() guard in checkpoint_from_json.
TEST(CheckpointResume, PayloadWithoutPhaseSecondsDecodesWithZeros) {
  Simulator s = make_simulator(incentive::MechanismKind::kOnDemand, false, 1,
                               false);
  s.step();
  Json j = checkpoint_to_json(s.checkpoint());
  Json::Object o = j.as_object();
  o.erase("phase_seconds");
  const CampaignCheckpoint back = checkpoint_from_json(Json(std::move(o)));
  EXPECT_EQ(back.phase_prepass_s, 0.0);
  EXPECT_EQ(back.phase_plan_s, 0.0);
  EXPECT_EQ(back.phase_reprice_s, 0.0);
  EXPECT_EQ(back.phase_commit_s, 0.0);
  EXPECT_EQ(back.next_round, 2);
}

// Corrupted readings once carried a noise knob that no campaign read. A
// fresh payload omits its key; an older payload that still carries it
// decodes to exactly the params of one without it.
TEST(CheckpointResume, CorruptionNoiseKeyOmittedAndIgnored) {
  Simulator s = make_simulator(incentive::MechanismKind::kOnDemand, true, 1,
                               false);
  s.step();
  const Json fresh = checkpoint_to_json(s.checkpoint());
  ASSERT_TRUE(fresh.at("params").has("faults"));
  EXPECT_FALSE(fresh.at("params").at("faults").has("corruption_noise"));

  Json legacy = fresh;
  legacy["params"]["faults"]["corruption_noise"] = Json(3.0);
  const CampaignCheckpoint back = checkpoint_from_json(legacy);
  EXPECT_EQ(checkpoint_to_json(back).at("params"), fresh.at("params"));
  EXPECT_EQ(back.params.faults.corruption_prob,
            stress_faults().corruption_prob);
  EXPECT_EQ(back.params.faults.seed, stress_faults().seed);
}

// A golden payload written before the per-user commit knob was retired:
// on-demand, stress faults, DP, checkpointed after round 3, with
// "legacy_commit": true in its params. Decoding must ignore the key — with
// either value — and the resumed campaign must be bit-identical to the
// straight run.
TEST(CheckpointResume, LegacyCommitPayloadResumesBitIdentical) {
  std::ifstream in(std::string(MCS_TEST_DATA_DIR) +
                       "/checkpoint_v1_legacy_commit.ckpt",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const CampaignRun straight =
      run_straight(incentive::MechanismKind::kOnDemand, true, 1, false);

  Json payload = Json::parse(bytes.substr(bytes.find('\n') + 1));
  ASSERT_TRUE(payload.at("params").at("legacy_commit").as_bool());
  ASSERT_TRUE(payload.at("params").at("faults").has("corruption_noise"));
  for (const bool flag : {true, false}) {
    SCOPED_TRACE(flag ? "legacy_commit=true" : "legacy_commit=false");
    payload["params"]["legacy_commit"] = Json(flag);
    const CampaignCheckpoint ckpt =
        flag ? decode_checkpoint(bytes) : checkpoint_from_json(payload);
    EXPECT_EQ(ckpt.next_round, 4);
    Simulator s = Simulator::resume(
        ckpt, fresh_mechanism(incentive::MechanismKind::kOnDemand),
        select::make_selector(select::SelectorKind::kDp, 14));
    s.run();
    expect_bit_identical(straight, finish(s));
  }
}

// A golden intra-round payload written before the serial mobility stream
// was retired: steered, static homes, stress faults, events recorded,
// checkpointed after round 3, carrying the old "mobility_rng" key.
// Decoding ignores the key and re-encoding drops it. Static homes never
// drew from that stream, so the resumed campaign is bit-identical to an
// uninterrupted run of the one session engine.
TEST(CheckpointResume, SteeredPayloadWithMobilityRngResumesBitIdentical) {
  std::ifstream in(
      std::string(MCS_TEST_DATA_DIR) + "/checkpoint_v1_steered.ckpt",
      std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const Json payload = Json::parse(bytes.substr(bytes.find('\n') + 1));
  ASSERT_TRUE(payload.has("mobility_rng"));
  ASSERT_TRUE(payload.at("params").at("faults").has("corruption_noise"));
  ASSERT_EQ(payload.at("mechanism").as_string(), "steered");

  const CampaignCheckpoint ckpt = decode_checkpoint(bytes);
  EXPECT_EQ(ckpt.next_round, 4);
  EXPECT_FALSE(checkpoint_to_json(ckpt).has("mobility_rng"));
  EXPECT_FALSE(
      checkpoint_to_json(ckpt).at("params").at("faults").has("corruption_noise"));
  Simulator s = Simulator::resume(
      ckpt, fresh_mechanism(incentive::MechanismKind::kSteered),
      select::make_selector(select::SelectorKind::kDp, 14));
  s.run();
  expect_bit_identical(
      run_straight(incentive::MechanismKind::kSteered, true, 1, false),
      finish(s));
}

TEST(CheckpointResume, MechanismNameMismatchRejected) {
  Simulator s = make_simulator(incentive::MechanismKind::kOnDemand, false, 1,
                               false);
  s.step();
  const CampaignCheckpoint ckpt = s.checkpoint();
  EXPECT_THROW(
      Simulator::resume(ckpt,
                        fresh_mechanism(incentive::MechanismKind::kFixed),
                        select::make_selector(select::SelectorKind::kDp, 14)),
      Error);
}

TEST(CheckpointResume, SelectorNameMismatchRejected) {
  Simulator s = make_simulator(incentive::MechanismKind::kOnDemand, false, 1,
                               false);
  s.step();
  const CampaignCheckpoint ckpt = s.checkpoint();
  EXPECT_THROW(
      Simulator::resume(
          ckpt, fresh_mechanism(incentive::MechanismKind::kOnDemand),
          select::make_selector(select::SelectorKind::kGreedy, 14)),
      Error);
}

TEST(CheckpointResume, VersionSkewRejected) {
  Simulator s = make_simulator(incentive::MechanismKind::kOnDemand, false, 1,
                               false);
  s.step();
  CampaignCheckpoint ckpt = s.checkpoint();
  ckpt.version = kCheckpointFormatVersion + 1;
  EXPECT_THROW(
      Simulator::resume(ckpt,
                        fresh_mechanism(incentive::MechanismKind::kOnDemand),
                        select::make_selector(select::SelectorKind::kDp, 14)),
      Error);
}

TEST(CheckpointResume, HistoryCursorMismatchRejected) {
  Simulator s = make_simulator(incentive::MechanismKind::kOnDemand, false, 1,
                               false);
  s.step();
  s.step();
  CampaignCheckpoint ckpt = s.checkpoint();
  ckpt.history.pop_back();  // silent loss of a round must not resume
  EXPECT_THROW(
      Simulator::resume(ckpt,
                        fresh_mechanism(incentive::MechanismKind::kOnDemand),
                        select::make_selector(select::SelectorKind::kDp, 14)),
      Error);
}

}  // namespace
}  // namespace mcs::sim
