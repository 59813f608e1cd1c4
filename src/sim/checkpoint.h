// Crash-safe campaign checkpoints (the durability layer of ROADMAP item
// "platform-service mode").
//
// A CampaignCheckpoint captures everything a mid-campaign Simulator needs to
// resume *bit-identically*: the world snapshot (tasks, users, earnings), the
// mechanism's serialized pricing state, the budget tracker's compensated
// accumulator, the round cursor, the metrics history and the event trace.
// No RNG state travels: mobility substreams, the visit shuffle and fault
// draws are pure functions of the seeds, the round and the user or task.
// Checkpoints are taken at round boundaries only — the
// one point where no plan, session or journal is in flight.
//
// On-disk format ("envelope"): a single ASCII header line
//
//   MCS-CKPT v<version> crc32=<8 hex digits> len=<payload bytes>\n
//
// followed by exactly `len` bytes of compact JSON payload and a trailing
// newline. The CRC-32 covers the raw payload bytes, so truncation fails the
// length check and any bit flip fails the checksum — a loader never parses
// bytes it cannot first vouch for.
//
// Write protocol (CheckpointWriter): each checkpoint becomes a new
// generation file `gen-<N>.ckpt`, written to `gen-<N>.ckpt.tmp`, fsync'd,
// renamed over the final name, directory fsync'd, then generations beyond
// the newest `keep` are pruned. A crash at any point leaves either the
// previous generations untouched (tmp never renamed) or the new generation
// fully durable — load_latest_checkpoint scans newest-first and falls back
// past unreadable/corrupt generations, so the last *good* generation always
// wins. StorageFaults injects short writes, torn (published-then-corrupted)
// writes, ENOSPC and crash points for the recovery tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "select/plan_memo.h"
#include "sim/event_log.h"
#include "sim/metrics.h"
#include "sim/simulator.h"

namespace mcs::sim {

inline constexpr int kCheckpointFormatVersion = 1;

/// Complete resumable state of one campaign at a round boundary.
/// `scenario` is provenance (the generating ScenarioParams as JSON; null
/// when the world was hand-built) — resume validates it when present but
/// reconstructs nothing from it, the world snapshot is authoritative.
struct CampaignCheckpoint {
  int version = kCheckpointFormatVersion;
  Json scenario;
  // Caller-defined identity of the campaign that wrote this checkpoint
  // (null when unused). The simulator ignores it; consumers that reuse a
  // checkpoint directory across runs (the experiment runner's sweeps share
  // one --checkpoint-dir across sweep points) stamp it on write and refuse
  // to resume from a checkpoint whose provenance is not theirs.
  Json provenance;
  SimulatorParams params;
  Round next_round = 1;           // the round the resumed campaign runs next
  Json world;                     // world_to_json snapshot
  std::string mechanism;          // IncentiveMechanism::name(), validated
  Json mechanism_state;           // IncentiveMechanism::state_to_json()
  std::string selector;           // TaskSelector::name(), validated
  std::string mobility;           // MobilityModel::name(), validated
  Money budget_spent = 0.0;       // BudgetTracker raw accumulator word
  Money budget_comp = 0.0;        // BudgetTracker Neumaier compensation word
  std::vector<RoundMetrics> history;
  std::vector<SensingEvent> events;
  select::PlanMemoStats memo_stats;
  // Cumulative phase timers (SimulatorParams::phase_timers): carried so a
  // resumed campaign's summary() reports whole-campaign phase times, not
  // just the post-resume slice. All zero when the timers are off.
  double phase_prepass_s = 0.0;
  double phase_plan_s = 0.0;
  double phase_reprice_s = 0.0;
  double phase_commit_s = 0.0;
};

/// JSON payload <-> checkpoint. u64 seeds travel as hex strings (Json
/// numbers are doubles; 2^64 does not fit). from_json throws mcs::Error on
/// any missing key, type mismatch or out-of-range value.
Json checkpoint_to_json(const CampaignCheckpoint& ckpt);
CampaignCheckpoint checkpoint_from_json(const Json& json);

/// Envelope <-> checkpoint. decode throws mcs::Error on a malformed header,
/// unsupported version, length mismatch (truncation) or CRC mismatch.
std::string encode_checkpoint(const CampaignCheckpoint& ckpt);
CampaignCheckpoint decode_checkpoint(const std::string& bytes);

/// Injectable storage faults for the recovery harness. Counters are in
/// bytes of the payload being written; -1 disables a fault. Exactly one
/// write is faulted per armed field (the writer clears it after firing), so
/// a test arms, writes, observes, and the next write is clean again.
struct StorageFaults {
  // Write only this many payload bytes to the tmp file, then "crash" (no
  // rename): the loader never sees the torn tmp.
  long long short_write_after = -1;
  // Write this many good payload bytes, fill the rest with garbage, and
  // PUBLISH the file via rename anyway: the loader sees a corrupt
  // generation and must fall back past it.
  long long torn_write_after = -1;
  // Simulate ENOSPC after this many payload bytes: the writer unlinks the
  // tmp file and throws mcs::Error (the caller keeps running; previous
  // generations stay good).
  long long enospc_after = -1;
  // Leave a fully written, fsync'd tmp file but never rename it.
  bool crash_before_rename = false;
  // Publish the new generation but skip pruning old ones.
  bool crash_before_prune = false;
  // Called at the instant the armed fault fires, before the writer cleans
  // up — a real kill-mid-write test calls _exit() here.
  std::function<void()> on_crash_point;

  bool armed() const {
    return short_write_after >= 0 || torn_write_after >= 0 ||
           enospc_after >= 0 || crash_before_rename || crash_before_prune;
  }
};

/// File name of generation `gen` inside a checkpoint directory.
std::string checkpoint_file_name(long long gen);

/// Atomic generational checkpoint writer for one campaign directory.
class CheckpointWriter {
 public:
  /// `dir` must exist. `keep` >= 1 generations are retained; the writer
  /// scans the directory so a resumed process continues the generation
  /// numbering instead of overwriting the files it is recovering from.
  explicit CheckpointWriter(std::string dir, int keep = 2);

  const std::string& dir() const { return dir_; }
  int keep() const { return keep_; }

  /// Arm fault injection for the next write() calls (see StorageFaults).
  void set_faults(StorageFaults faults) { faults_ = std::move(faults); }

  /// Write one checkpoint as the next generation (tmp + fsync + rename +
  /// dir fsync + prune). Returns true on a clean, fully durable generation;
  /// false when an armed crash-style fault simulated a process death
  /// mid-protocol (the disk then holds whatever the crash left — a torn
  /// tmp, a published-but-corrupt generation, or a durable one with stale
  /// siblings — and the loader's fallback sorts it out). Throws mcs::Error
  /// on real I/O errors and on the injected ENOSPC. Armed faults are
  /// one-shot: they disarm when they fire.
  bool write(const CampaignCheckpoint& ckpt);

  /// Path of the last successfully published generation ("" before any).
  const std::string& last_path() const { return last_path_; }

 private:
  std::string dir_;
  int keep_;
  long long next_gen_ = 1;
  std::string last_path_;
  StorageFaults faults_;
};

struct LoadedCheckpoint {
  CampaignCheckpoint checkpoint;
  std::string path;
  long long generation = 0;
  // Newer generations that existed but failed to decode (corruption the
  // fallback walked past); useful for logging and the recovery tests.
  int skipped_generations = 0;
};

/// True when `dir` holds at least one published generation file (readable
/// or not — has_checkpoint only looks at names, load decides goodness).
bool has_checkpoint(const std::string& dir);

/// Load and decode one specific envelope file. Throws mcs::Error when the
/// file cannot be read or fails any envelope/payload check.
CampaignCheckpoint load_checkpoint(const std::string& path);

/// Load the newest decodable generation in `dir`, skipping corrupt or
/// truncated ones (tmp files are never considered). Throws mcs::Error when
/// no usable generation exists.
LoadedCheckpoint load_latest_checkpoint(const std::string& dir);

}  // namespace mcs::sim
