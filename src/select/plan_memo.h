// PlanMemo: cross-user memoization of per-round task-selection plans.
//
// At production density many users of one sensing round face *identical*
// selection instances: the open set and prices are frozen for the round
// (round-granularity mechanisms), and users clustered at the same point of
// interest share the same start location and often the same time budget
// and contributed set — hence the same reachable candidate list. Their DP
// solves are then byte-for-byte the same work, O(m^2 * 2^m) each. The memo
// keys every planned invocation by
//
//   (quantized start cell, time-budget bucket,
//    signature of the candidate task-id vector)
//
// and lets only the first user of an equivalence class — the class *owner*
// — pay the solve; everyone else pays a hash lookup plus an O(m) fix-up
// check. Within one round a task id determines its location, and instances
// list candidates in ascending task-row order, so equal id vectors mean
// equal candidate geometry and enumeration order. The result is pinned
// bit-identical to the memo-free path: a plan is ever reused only under one
// of two *proofs*:
//
//  * Exact hit: the probing instance equals the cached one — bit-equal
//    start, bit-equal time budget, the identical candidate id vector and
//    bit-equal rewards and travel model. Selectors are documented
//    deterministic pure functions of the instance (selector.h), so the
//    cached Selection IS what the probing user's own solve would return.
//    Safe for any selector.
//  * Dominance fix-up (start-leg fix-up for the empty tour): the cached
//    instance was solved *exactly* (TaskSelector::exact_candidate_limit()
//    covers the candidate count) and returned the empty selection; the
//    probing user has the same candidate ids, rewards and travel model, a
//    time budget no larger than the cached one, and a start-leg distance to
//    every candidate no shorter than the cached user's. Travel time and
//    cost are linear in distance (geo::TravelModel), so every tour feasible
//    for the prober is feasible for the cached user at no higher cost: all
//    its tours have profit <= the cached optimum <= 0, and an exact solver
//    (strict improvement over the empty incumbent, as the DP implements)
//    returns exactly the empty selection again.
//
// Everything else — tie-breaking ambiguity between distinct non-empty
// tours, a contributed task or a reach difference that changes the
// candidate list, a repriced candidate — fails verification and takes the
// exact fallback: the user's full solve runs as if the memo did not exist
// (counted in stats().fallbacks).
//
// Concurrency/determinism: a table is scoped by begin_table() — once per
// grid cell of the simulator's round loop — and one worker drives it user
// by user in position order: classify assigns a Ticket (owner / exact hit
// / pending dominance probe); an owner solves and publishes its plan, an
// exact hit copies it, a pending resolves (a failed probe solves in full).
// A cell's owner always precedes its hits in position order, so every
// probe finds its owner published. Insertion order, hit/miss accounting
// and every returned plan are therefore identical at any worker count.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "select/instance.h"

namespace mcs::select {

struct PlanMemoParams {
  bool enabled = false;
  // Start-point quantization for the memo key. Coarser cells put more
  // near-identical users in one bucket (longer probe chains), finer cells
  // split them; correctness never depends on the value because every probe
  // re-verifies exact content.
  Meters cell_size = 250.0;
  // Time-budget quantization for the memo key (same bucketing-only role).
  Seconds budget_bucket = 60.0;
  // Cap on cached entries per key: once a bucket is full, further owners
  // still solve (and are counted as misses) but are not inserted.
  int max_entries_per_key = 8;

  void validate() const;
};

struct PlanMemoStats {
  long long exact_hits = 0;  // plan copied from a bit-equal instance
  long long fixup_hits = 0;  // dominance fix-up proved the empty plan
  long long misses = 0;      // full solves (class owners + fallbacks)
  long long fallbacks = 0;   // pendings whose fix-up failed (subset of misses)
  long long rounds = 0;      // rounds the memo was active for (count_round)

  long long hits() const { return exact_hits + fixup_hits; }
  long long lookups() const { return hits() + misses; }
  double hit_rate() const {
    return lookups() > 0 ? static_cast<double>(hits()) /
                               static_cast<double>(lookups())
                         : 0.0;
  }
};

class PlanMemo {
 public:
  enum class Outcome : std::uint8_t {
    kOwner,     // first of its class: solve, then publish()
    kExactHit,  // bit-equal instance cached: copy via cached_plan()
    kPending,   // dominance candidate: resolve() after the owner published
  };

  struct Ticket {
    Outcome outcome = Outcome::kOwner;
    // Entry index for kExactHit/kPending, and for kOwner when the entry was
    // inserted (kNoEntry when its key bucket was full).
    std::uint32_t entry = kNoEntry;
  };

  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  explicit PlanMemo(PlanMemoParams params);

  const PlanMemoParams& params() const { return params_; }

  /// Start a new table: drop every entry (capacity is kept). Tables never
  /// span rounds; cumulative stats survive.
  void begin_table();

  /// Count one round the memo was active for (stats().rounds). The
  /// simulator calls it once per memoized round, however many tables the
  /// round used.
  void count_round() { ++stats_.rounds; }

  /// Classify the next user of the table, in user-position order.
  /// `exact_candidate_limit` is the solving selector's
  /// TaskSelector::exact_candidate_limit(). Updates stats for exact hits
  /// and owners; pendings are counted at resolve().
  Ticket classify(const SelectionInstance& inst, int exact_candidate_limit);

  /// Publish an owner's freshly solved plan (and its is_feasible result)
  /// into its entry. No-op for kNoEntry.
  void publish(const Ticket& t, const Selection& plan, bool feasible);

  /// The plan cached for an exact-hit ticket (valid after the owner
  /// published, which position order guarantees).
  const Selection& cached_plan(const Ticket& t) const;
  bool cached_feasible(const Ticket& t) const;

  /// Resolve a pending ticket against its (now published) entry. True: the
  /// dominance fix-up holds, *plan is the proven (empty) selection, counted
  /// as a fix-up hit. False: the caller must run the full solve; counted as
  /// a fallback and a miss.
  bool resolve(const Ticket& t, const Selection** plan);

  const PlanMemoStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  /// Resume path: reinstall cumulative counters from a checkpoint. Tables
  /// never span rounds, so the counters are the memo's only cross-round
  /// state.
  void restore_stats(const PlanMemoStats& stats) { stats_ = stats; }

 private:
  struct Entry {
    geo::Point start;
    Seconds time_budget = 0.0;
    std::vector<TaskId> ids;       // candidate ids, instance order
    std::vector<Meters> d0;        // start-leg distance per included candidate
    std::vector<Money> rewards;    // per included candidate, insert-time
    geo::TravelModel travel;
    int exact_limit = 0;           // solver's exact cap at insert time
    bool solved = false;
    bool feasible = true;
    Selection plan;
  };

  std::uint64_t key_of(const SelectionInstance& inst,
                       std::uint64_t sig_hash) const;

  PlanMemoParams params_;
  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
  PlanMemoStats stats_;
  // Scratch reused across classify() calls.
  std::vector<TaskId> scratch_ids_;
  std::vector<Meters> scratch_d0_;
};

}  // namespace mcs::select
