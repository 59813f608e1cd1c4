// Deterministic shard-parallel commit — the only commit of the session
// engine (Simulator::commit_sessions). Round-granularity rounds commit once
// per round over contiguous visit-order segments; intra-round rounds commit
// every session as a one-user slice of the visit order.
//
// The original commit walked every user's planned tour serially in visit
// order, interleaving per-leg work that touches wildly scattered state: a
// task-view lookup and a virtual reward() call per leg, a push into that
// task's measurement vector, a contributor-bitset insert, a budget payment
// and an event append. At 10^6 users that walk is cache-miss bound and was
// the dominant serial Amdahl term of Simulator::step() (PR 8's timers).
//
// The replacement splits the commit into three phases (DESIGN.md §10):
//
//   A. *Parallel session walk* — contiguous visit-order segments fan out
//      over the plan workers. Each segment walks its users' tours (fault
//      draws are stateless hashes; per-user state writes touch disjoint
//      rows) and records every walked leg as a POD CommitLeg in segment
//      order, plus a per-segment Neumaier payment sub-account, a dirty-task
//      journal (ChunkedBitset of task rows) and integer fault counters.
//   B. *Serial ordered merge* — segments are replayed in segment order (=
//      global visit order): budget payments, event records and the
//      wasted-travel accumulation happen per leg, in exactly the order the
//      serial commit produced them, so every order-sensitive accumulator
//      (the budget tracker's compensated words, rm.wasted_travel, the
//      event trace) is bit-identical at any worker count.
//   C. *Task-grouped delivery apply* — the segments' dirty journals merge
//      (ChunkedBitset::operator|=) into the round's touched-row set, the
//      accepted legs are counting-sorted by task row (stable in leg order,
//      so each task receives its measurements in visit order), and the
//      measurement/contributor columns are written row-by-row in one
//      cache-friendly sweep — parallelizable over disjoint row ranges.
//
// Phases A and C scale with workers; phase B is a linear sweep over two
// doubles and an append-only log, a few ns per leg. On one core the same
// structure is still the fast path: phase A reads prices from a dense
// per-row snapshot instead of a virtual call per leg, and phase C turns
// the random-access measurement writes into per-task sequential appends.
#pragma once

#include <cstdint>
#include <vector>

#include "common/chunked_bitset.h"
#include "common/types.h"
#include "incentive/budget.h"
#include "model/store.h"
#include "sim/event_log.h"
#include "sim/metrics.h"

namespace mcs {
class ThreadPool;
}

namespace mcs::sim {

/// One walked tour leg. `accepted == 0` marks an upload lost in flight:
/// the leg was walked (it feeds wasted_travel and the event trace) but
/// carries no payment and no delivery.
struct CommitLeg {
  std::uint32_t task_row = 0;  // task position in the TaskStore
  UserId user = kInvalidUser;
  Money reward = 0.0;  // published reward paid on acceptance; 0 when lost
  Meters leg = 0.0;    // leg distance as the session walk computed it
  std::uint8_t accepted = 0;
  std::uint8_t corrupted = 0;
};

/// Thread-local effect buffer of one contiguous visit-order segment.
struct CommitSegment {
  std::vector<CommitLeg> legs;  // every walked leg, in visit order
  // Per-segment compensated payment total. The merge replays the individual
  // payments instead of folding these (budget.h explains why); the
  // sub-accounts cross-check the replay and bound segment payouts.
  incentive::BudgetTracker::SubAccount paid;
  ChunkedBitset dirty_rows;  // task rows with at least one accepted delivery
  int dropped = 0;
  int abandoned = 0;
  int lost = 0;
  int corrupted = 0;
  int active = 0;

  void clear() {
    legs.clear();
    paid.reset();
    dirty_rows.clear();
    dropped = abandoned = lost = corrupted = active = 0;
  }
};

/// Reusable scratch of the commit pipeline (owned by the Simulator so the
/// steady state stays allocation-free).
struct CommitScratch {
  std::vector<CommitSegment> segments;
  // Counting-sort state for phase C. `task_count` is sized to the task set
  // and kept all-zero between rounds; `row_start` is CSR offsets aligned
  // with `dirty_row_list` (ascending task rows with deliveries).
  std::vector<std::uint32_t> task_count;
  std::vector<std::uint32_t> row_start;
  std::vector<std::uint32_t> dirty_row_list;
  ChunkedBitset dirty;
  struct Delivery {
    UserId user = kInvalidUser;
    Money reward = 0.0;
  };
  std::vector<Delivery> ordered;  // accepted legs grouped by task row
};

/// Phase B: replay segment effects in segment order — budget payments and
/// event records per leg, fault counters and wasted travel exactly as the
/// serial commit interleaved them. `ts` supplies task ids for the trace.
void merge_commit_segments(const std::vector<CommitSegment>& segments,
                           Round k, const model::TaskStore& ts,
                           incentive::BudgetTracker& budget, EventLog& events,
                           RoundMetrics& rm);

/// Phase C: merge the dirty journals, counting-sort the accepted legs by
/// task row (stable, so per-task delivery order equals visit order) and
/// append measurements / contributor bits row by row. `pool` may be null
/// (serial apply); with a pool the touched rows split into `workers`
/// contiguous, delivery-balanced ranges — disjoint rows, no shared writes.
void apply_commit_deliveries(const std::vector<CommitSegment>& segments,
                             Round k, model::TaskStore& ts,
                             CommitScratch& scratch, ThreadPool* pool,
                             int workers);

}  // namespace mcs::sim
