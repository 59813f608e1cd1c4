// The checkpoint envelope, the atomic generational writer and the
// storage-fault harness: every corruption mode (bit flip, truncation,
// version skew, short/torn/ENOSPC writes, crash points) must end in a clean
// mcs::Error or a fallback to an older good generation — never a crash, a
// hang or a silently wrong resume. The CheckpointCrash suite forks and
// _exit()s mid-write (tier-1 skips it with --skip-crash on platforms where
// fork inside the test binary is awkward).
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "incentive/mechanism.h"
#include "select/selector.h"
#include "sim/scenario.h"
#include "sim/serialize.h"
#include "sim/simulator.h"

namespace mcs::sim {
namespace {

/// Fresh empty directory under the test temp root.
std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "mcs_ckpt_XXXXXX";
  const char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

/// A real mid-campaign checkpoint (3 rounds into an 8-round on-demand
/// campaign with events recorded), the fixture every envelope/writer test
/// serializes.
CampaignCheckpoint sample_checkpoint(Round steps = 3) {
  ScenarioParams p;
  p.num_users = 20;
  p.num_tasks = 8;
  p.required_measurements = 4;
  Rng rng(77);
  model::World world = generate_world(p, rng);
  Rng mech_rng = rng.split(0xfeed);
  auto mech = incentive::make_mechanism(incentive::MechanismKind::kOnDemand,
                                        world, {}, mech_rng);
  auto selector = select::make_selector(select::SelectorKind::kGreedy, 14);
  SimulatorParams sp;
  sp.max_rounds = 8;
  sp.record_events = true;
  Simulator s(std::move(world), std::move(mech), std::move(selector), sp);
  for (Round k = 0; k < steps; ++k) s.step();
  CampaignCheckpoint ckpt = s.checkpoint();
  ckpt.scenario = scenario_to_json(p);
  // A caller identity stamp, so the envelope round-trip tests cover the
  // provenance field the experiment runner relies on.
  Json::Object prov;
  prov["seed"] = Json(std::string("000000000000004d"));
  prov["sweep_point"] = Json(20);
  ckpt.provenance = Json(std::move(prov));
  return ckpt;
}

TEST(CheckpointEnvelope, Crc32MatchesTheIeeeTestVector) {
  const char* v = "123456789";
  EXPECT_EQ(crc32(v, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(v, 0), 0u);
}

TEST(CheckpointEnvelope, EncodeDecodeRoundTripIsIdentity) {
  const CampaignCheckpoint ckpt = sample_checkpoint();
  const std::string bytes = encode_checkpoint(ckpt);
  ASSERT_EQ(bytes.compare(0, 9, "MCS-CKPT "), 0);
  const CampaignCheckpoint back = decode_checkpoint(bytes);
  // The JSON payload is canonical (sorted keys, %.17g doubles), so equality
  // of dumps is equality of every field bit for bit.
  EXPECT_EQ(checkpoint_to_json(back).dump(), checkpoint_to_json(ckpt).dump());
  EXPECT_EQ(back.next_round, ckpt.next_round);
  EXPECT_EQ(back.history.size(), ckpt.history.size());
  EXPECT_EQ(back.events.size(), ckpt.events.size());
}

TEST(CheckpointEnvelope, EveryBitFlipIsRejected) {
  std::string bytes = encode_checkpoint(sample_checkpoint());
  // Stride through the envelope; each flipped bit must fail decode (header
  // flips break the header/version/CRC parse, payload flips break the CRC).
  for (std::size_t i = 0; i < bytes.size(); i += 97) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    if (mutated == bytes) continue;
    EXPECT_THROW(decode_checkpoint(mutated), Error) << "byte " << i;
  }
}

TEST(CheckpointEnvelope, EveryTruncationIsRejected) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); len += 211) {
    EXPECT_THROW(decode_checkpoint(bytes.substr(0, len)), Error)
        << "length " << len;
  }
  EXPECT_THROW(decode_checkpoint(bytes.substr(0, bytes.size() - 1)), Error);
  // Appended garbage is not something the writer produced either.
  EXPECT_THROW(decode_checkpoint(bytes + "x"), Error);
}

TEST(CheckpointEnvelope, UnsupportedVersionIsRejected) {
  CampaignCheckpoint ckpt = sample_checkpoint();
  ckpt.version = kCheckpointFormatVersion + 1;
  const std::string bytes = encode_checkpoint(ckpt);
  EXPECT_THROW(decode_checkpoint(bytes), Error);
}

TEST(CheckpointEnvelope, MalformedHeadersAreRejected) {
  EXPECT_THROW(decode_checkpoint(""), Error);
  EXPECT_THROW(decode_checkpoint("\n"), Error);
  EXPECT_THROW(decode_checkpoint("not a checkpoint\n{}"), Error);
  EXPECT_THROW(decode_checkpoint(std::string(200, 'a')), Error);
  EXPECT_THROW(decode_checkpoint("MCS-CKPT v1 crc32=00000000 len=-3\n"), Error);
}

TEST(CheckpointWriter, RetainsTheNewestKeepGenerations) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  CheckpointWriter writer(dir, /*keep=*/2);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(writer.write(ckpt));
  EXPECT_EQ(writer.last_path(), dir + "/" + checkpoint_file_name(3));

  struct stat st{};
  EXPECT_NE(::stat((dir + "/" + checkpoint_file_name(1)).c_str(), &st), 0)
      << "generation 1 must be pruned";
  EXPECT_EQ(::stat((dir + "/" + checkpoint_file_name(2)).c_str(), &st), 0);
  EXPECT_EQ(::stat((dir + "/" + checkpoint_file_name(3)).c_str(), &st), 0);

  const LoadedCheckpoint loaded = load_latest_checkpoint(dir);
  EXPECT_EQ(loaded.generation, 3);
  EXPECT_EQ(loaded.skipped_generations, 0);
}

TEST(CheckpointWriter, ContinuesNumberingAcrossProcessRestarts) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  {
    CheckpointWriter writer(dir);
    EXPECT_TRUE(writer.write(ckpt));
    EXPECT_TRUE(writer.write(ckpt));
  }
  // A resumed process must not overwrite the generation it just recovered
  // from: the fresh writer picks up at 3.
  CheckpointWriter resumed(dir);
  EXPECT_TRUE(resumed.write(ckpt));
  EXPECT_EQ(resumed.last_path(), dir + "/" + checkpoint_file_name(3));
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 3);
}

TEST(CheckpointWriter, RejectsMissingDirectoryAndBadKeep) {
  EXPECT_THROW(CheckpointWriter("/nonexistent/mcs-ckpt-dir"), Error);
  const std::string dir = make_temp_dir();
  EXPECT_THROW(CheckpointWriter(dir, /*keep=*/0), Error);
}

TEST(CheckpointWriter, HasCheckpointIgnoresTmpAndForeignFiles) {
  const std::string dir = make_temp_dir();
  EXPECT_FALSE(has_checkpoint(dir));
  EXPECT_FALSE(has_checkpoint(dir + "/does-not-exist"));
  { std::ofstream(dir + "/gen-00000001.ckpt.tmp") << "torn"; }
  { std::ofstream(dir + "/notes.txt") << "hi"; }
  EXPECT_FALSE(has_checkpoint(dir));
  CheckpointWriter writer(dir);
  EXPECT_TRUE(writer.write(sample_checkpoint()));
  EXPECT_TRUE(has_checkpoint(dir));
}

TEST(CheckpointFaults, ShortWriteLeavesThePreviousGenerationGood) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  CheckpointWriter writer(dir);
  EXPECT_TRUE(writer.write(ckpt));

  StorageFaults faults;
  faults.short_write_after = 100;
  writer.set_faults(faults);
  EXPECT_FALSE(writer.write(ckpt));  // "crashed": tmp left, never renamed

  const LoadedCheckpoint loaded = load_latest_checkpoint(dir);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.skipped_generations, 0) << "tmp files are never candidates";
  // Faults are one-shot: the next write is clean again, and it reuses the
  // generation number the crashed attempt never published.
  EXPECT_TRUE(writer.write(ckpt));
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 2);
}

TEST(CheckpointFaults, TornWritePublishesCorruptGenerationAndFallsBack) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  CheckpointWriter writer(dir);
  EXPECT_TRUE(writer.write(ckpt));

  StorageFaults faults;
  faults.torn_write_after = 200;
  writer.set_faults(faults);
  EXPECT_FALSE(writer.write(ckpt));

  // The corrupt generation 2 is on disk with the right name and size; only
  // its CRC gives it away, and the loader falls back to generation 1.
  EXPECT_THROW(load_checkpoint(dir + "/" + checkpoint_file_name(2)), Error);
  const LoadedCheckpoint loaded = load_latest_checkpoint(dir);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.skipped_generations, 1);
}

TEST(CheckpointFaults, EnospcThrowsAndKeepsThePreviousGeneration) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  CheckpointWriter writer(dir);
  EXPECT_TRUE(writer.write(ckpt));

  StorageFaults faults;
  faults.enospc_after = 50;
  writer.set_faults(faults);
  EXPECT_THROW(writer.write(ckpt), Error);

  // The failed write unlinked its tmp and published nothing.
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 1);
  EXPECT_TRUE(writer.write(ckpt));  // disk "freed": clean write works
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 2);
}

TEST(CheckpointFaults, CrashBeforeRenameKeepsThePreviousGeneration) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  CheckpointWriter writer(dir);
  EXPECT_TRUE(writer.write(ckpt));

  StorageFaults faults;
  faults.crash_before_rename = true;
  bool fired = false;
  faults.on_crash_point = [&fired] { fired = true; };
  writer.set_faults(faults);
  EXPECT_FALSE(writer.write(ckpt));
  EXPECT_TRUE(fired);

  // The durable-but-unpublished tmp is invisible to the loader.
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 1);
}

TEST(CheckpointFaults, CrashBeforePruneLeavesStaleSiblingsLoadable) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  CheckpointWriter writer(dir, /*keep=*/1);
  EXPECT_TRUE(writer.write(ckpt));

  StorageFaults faults;
  faults.crash_before_prune = true;
  writer.set_faults(faults);
  EXPECT_FALSE(writer.write(ckpt));

  // Generation 2 is fully durable; generation 1 survived the skipped prune.
  struct stat st{};
  EXPECT_EQ(::stat((dir + "/" + checkpoint_file_name(1)).c_str(), &st), 0);
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 2);
  // The next clean write prunes everything older than keep=1.
  EXPECT_TRUE(writer.write(ckpt));
  EXPECT_NE(::stat((dir + "/" + checkpoint_file_name(1)).c_str(), &st), 0);
  EXPECT_NE(::stat((dir + "/" + checkpoint_file_name(2)).c_str(), &st), 0);
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 3);
}

TEST(CheckpointFaults, LoadOfEmptyDirectoryThrowsWithCandidateCount) {
  const std::string dir = make_temp_dir();
  try {
    load_latest_checkpoint(dir);
    FAIL() << "empty directory must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("0 candidate(s)"), std::string::npos)
        << e.what();
  }
}

// Real kill-mid-write: the child process dies inside the write protocol via
// _exit() at the crash point; the parent then recovers from whatever the
// dead process left on disk. Named CheckpointCrash so tier-1's --skip-crash
// escape hatch (ctest -E CheckpointCrash) can exclude fork-based tests.
class CheckpointCrash : public ::testing::Test {
 protected:
  /// Fork, arm `faults` with an _exit crash point, write in the child, and
  /// reap it. Returns the child's exit status.
  int crash_child(const std::string& dir, StorageFaults faults,
                  const CampaignCheckpoint& ckpt) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      faults.on_crash_point = [] { ::_exit(42); };
      try {
        CheckpointWriter writer(dir);
        writer.set_faults(faults);
        writer.write(ckpt);
      } catch (...) {
      }
      ::_exit(7);  // the crash point should have killed us first
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

TEST_F(CheckpointCrash, KillDuringShortWriteRecoversLastGoodGeneration) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  {
    CheckpointWriter writer(dir);
    ASSERT_TRUE(writer.write(ckpt));
  }
  StorageFaults faults;
  faults.short_write_after = 64;
  EXPECT_EQ(crash_child(dir, faults, ckpt), 42);

  const LoadedCheckpoint loaded = load_latest_checkpoint(dir);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(checkpoint_to_json(loaded.checkpoint).dump(),
            checkpoint_to_json(ckpt).dump());
}

TEST_F(CheckpointCrash, KillBeforeRenameRecoversLastGoodGeneration) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  {
    CheckpointWriter writer(dir);
    ASSERT_TRUE(writer.write(ckpt));
    ASSERT_TRUE(writer.write(ckpt));
  }
  StorageFaults faults;
  faults.crash_before_rename = true;
  EXPECT_EQ(crash_child(dir, faults, ckpt), 42);

  const LoadedCheckpoint loaded = load_latest_checkpoint(dir);
  EXPECT_EQ(loaded.generation, 2);
  // And the survivor continues the numbering past the dead tmp.
  CheckpointWriter writer(dir);
  EXPECT_TRUE(writer.write(ckpt));
  EXPECT_EQ(load_latest_checkpoint(dir).generation, 3);
}

TEST_F(CheckpointCrash, KillDuringTornWriteFallsBackPastCorruptGeneration) {
  const std::string dir = make_temp_dir();
  const CampaignCheckpoint ckpt = sample_checkpoint();
  {
    CheckpointWriter writer(dir);
    ASSERT_TRUE(writer.write(ckpt));
  }
  StorageFaults faults;
  faults.torn_write_after = 128;
  EXPECT_EQ(crash_child(dir, faults, ckpt), 42);

  const LoadedCheckpoint loaded = load_latest_checkpoint(dir);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.skipped_generations, 1);
}

// Structured fuzz over the decode path: random corruptions of a valid
// envelope must always end in mcs::Error or a successful decode — never a
// crash, hang or out-of-bounds read (tier-1 runs this under ASan+UBSan).
TEST(CheckpointFuzz, RandomBitFlipsNeverCrashTheDecoder) {
  const CampaignCheckpoint ckpt = sample_checkpoint();
  const std::string bytes = encode_checkpoint(ckpt);
  const std::string canonical = checkpoint_to_json(ckpt).dump();
  Rng rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = bytes;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      mutated[at] = static_cast<char>(
          mutated[at] ^ (1 << static_cast<int>(rng.uniform_int(0, 7))));
    }
    try {
      const CampaignCheckpoint out = decode_checkpoint(mutated);
      // Only a mutation that cancelled itself out can decode — and then it
      // must decode to exactly the original.
      EXPECT_EQ(checkpoint_to_json(out).dump(), canonical);
    } catch (const Error&) {
      // Clean rejection: the expected outcome.
    }
  }
}

TEST(CheckpointFuzz, RandomTruncationsAndPaddingNeverCrashTheDecoder) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  Rng rng(2027);
  for (int trial = 0; trial < 200; ++trial) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    EXPECT_THROW(decode_checkpoint(bytes.substr(0, len)), Error);
    EXPECT_THROW(
        decode_checkpoint(bytes +
                          std::string(1 + static_cast<std::size_t>(
                                              rng.uniform_int(0, 16)),
                                      '#')),
        Error);
  }
}

TEST(CheckpointFuzz, CorruptedDirectoriesAlwaysFallBackOrRejectCleanly) {
  const CampaignCheckpoint ckpt = sample_checkpoint();
  Rng rng(2028);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string dir = make_temp_dir();
    CheckpointWriter writer(dir);
    ASSERT_TRUE(writer.write(ckpt));
    ASSERT_TRUE(writer.write(ckpt));
    // Corrupt the newest generation in a random way.
    const std::string newest = dir + "/" + checkpoint_file_name(2);
    const int mode = static_cast<int>(rng.uniform_int(0, 2));
    if (mode == 0) {
      std::ofstream(newest, std::ios::trunc) << "";
    } else if (mode == 1) {
      std::ofstream(newest, std::ios::trunc) << "MCS-CKPT v99 garbage\n";
    } else {
      std::string b = encode_checkpoint(ckpt);
      b[b.size() / 2] ^= 0x40;
      std::ofstream(newest, std::ios::trunc | std::ios::binary) << b;
    }
    const LoadedCheckpoint loaded = load_latest_checkpoint(dir);
    EXPECT_EQ(loaded.generation, 1);
    EXPECT_EQ(loaded.skipped_generations, 1);
    EXPECT_EQ(checkpoint_to_json(loaded.checkpoint).dump(),
              checkpoint_to_json(ckpt).dump());
  }
}

}  // namespace
}  // namespace mcs::sim
