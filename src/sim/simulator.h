// The round-based crowdsensing campaign of Fig. 1.
//
// Each sensing round k:
//   (1) the platform updates rewards from the previous round's demands,
//   (2) tasks (with rewards) are published,
//   (3) every user solves its task-selection problem (Eq. 1),
//   (4) users walk their tours and upload measurements, earning the round's
//       published reward per accepted measurement and paying travel cost,
//   (5) the platform recomputes task demands for the next round.
// Completed and expired tasks are withdrawn at round boundaries. The loop
// runs until `max_rounds` or until no open task remains.
//
// One session engine runs every round. A pre-pass moves every user to its
// round-start location (per-user mobility substreams) and draws dropout,
// before any session. Round-granularity mechanisms then price once: users
// plan against the frozen round prices on the worker pool and commit in
// visit order. Intra-round mechanisms (updates_within_round()) differ in
// one way only: in visit order, each surviving user's session is repriced,
// gathered, solved and committed before the next one is priced.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "geo/spatial_grid.h"
#include "incentive/budget.h"
#include "incentive/mechanism.h"
#include "model/world.h"
#include "select/plan_memo.h"
#include "select/selector.h"
#include "sim/commit.h"
#include "sim/event_log.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/mobility.h"

namespace mcs::sim {

struct CampaignCheckpoint;  // sim/checkpoint.h

struct SimulatorParams {
  Round max_rounds = 15;
  Money platform_budget = 1000.0;  // B
  bool record_events = false;      // keep a full per-measurement trace
  // Users act in a freshly shuffled order each round (visit_order() in
  // sim/mobility.h; only observable with mechanisms that reprice within a
  // round); the shuffle and the per-user mobility substreams derive from
  // this seed, keeping campaigns bit-reproducible.
  std::uint64_t order_seed = 1;
  // Fault injection (sim/faults.h). The default plan injects nothing and
  // leaves the campaign bit-identical to a fault-free run; fault draws come
  // from their own hash-based stream (mixed from faults.seed and
  // order_seed), so they never perturb mobility or ordering draws.
  FaultPlan faults;
  // Worker threads of the session engine for round-granularity mechanisms
  // (updates_within_round() == false) when `shards` is 0. 1 = one worker
  // (default); 0 = one worker per hardware thread; n = exactly n. Prices
  // and the round task index are frozen at round start, so every user's
  // pre-pass, selection instance and plan can be computed concurrently and
  // committed in visit order — the campaign is bit-identical at any worker
  // count (pinned against the test-held serial oracle by the plan-, shard-
  // and commit-equivalence suites, including under TSan). Intra-round
  // mechanisms reprice between sessions and always run at one worker
  // regardless of this knob. Requires the selector to support clone();
  // selectors without it run the same loop at one worker.
  int plan_threads = 1;
  // Worker count of the session engine for round-granularity mechanisms,
  // overriding plan_threads when nonzero: n >= 1 = exactly n workers;
  // kAutoShards = one worker per hardware thread; 0 (default) =
  // plan_threads workers. It selects no code path: the one engine
  // partitions users by the grid cell of their round-start location, runs
  // mobility/dropout and the per-user planning over whole cells on the
  // workers, and commits in visit order. Campaigns are bit-identical at
  // any value. Mobility draws come from per-user substreams
  // (mobility_stream_seed), so stochastic mobility also walks the same
  // trajectory at any worker count. Intra-round mechanisms run the same
  // pre-pass at one worker and ignore this knob.
  int shards = 0;
  static constexpr int kAutoShards = -1;
  // Worker threads for the reprice phase: the mechanism's demand/level/
  // reward sweep and, when a neighbor-cache rebuild is due, the cache's
  // per-task count pass. 1 = serial (default); 0 = one worker per hardware
  // thread; n = exactly n. The sweep partitions into disjoint task-row
  // ranges with a two-pass deterministic Nmax reduction, so campaigns are
  // bit-identical at any value (pinned by the reprice-equivalence suite,
  // including under TSan). Uses a dedicated pool so the plan/shard worker
  // counts stay independent knobs; mechanisms without a sharded sweep
  // simply ignore the workers.
  int reprice_threads = 1;
  // Record cumulative wall-clock seconds of the round phases (pre-pass /
  // plan / reprice / commit) into CampaignMetrics. Off by default: the
  // timer reads are cheap but nonzero, and the fields are diagnostics.
  bool phase_timers = false;
  // Cross-user plan memoization for the planning phase (select/plan_memo.h):
  // users of one round whose selection instances are provably equivalent
  // share one solve. Off by default; when memo.enabled the campaign stays
  // bit-identical to the memo-free run (pinned by the plan-memo equivalence
  // suite) at any worker count — one table per grid cell, each cell
  // classified, solved and published by one worker in position order, so
  // plans and hit/miss counts are worker-count-invariant. Intra-round
  // mechanisms reprice between sessions, so the memo does not apply to
  // them (ignored, exactly like plan_threads).
  select::PlanMemoParams memo;
};

class Simulator {
 public:
  /// Owns the world, the mechanism and the selector for the campaign.
  /// `mobility` defaults to the paper's static-home model when null.
  Simulator(model::World world,
            std::unique_ptr<incentive::IncentiveMechanism> mechanism,
            std::unique_ptr<select::TaskSelector> selector,
            SimulatorParams params,
            std::unique_ptr<MobilityModel> mobility = nullptr);

  /// Execute one sensing round; returns its metrics. Rounds are numbered
  /// from 1. Calling past max_rounds is an error.
  const RoundMetrics& step();

  /// Run rounds until max_rounds (or until every task is closed); returns
  /// the end-of-campaign summary.
  CampaignMetrics run();

  /// True when every task is either completed or past its deadline at the
  /// *next* round, i.e. there is nothing left to sense.
  bool all_tasks_closed() const;

  Round current_round() const { return next_round_ - 1; }
  const model::World& world() const { return world_; }
  const incentive::IncentiveMechanism& mechanism() const { return *mechanism_; }
  const select::TaskSelector& selector() const { return *selector_; }
  const MobilityModel& mobility() const { return *mobility_; }
  const FaultInjector& faults() const { return faults_; }
  const std::vector<RoundMetrics>& history() const { return history_; }
  const incentive::BudgetTracker& budget() const { return budget_; }
  const EventLog& events() const { return events_; }
  /// Cumulative plan-memo accounting (all zero unless params.memo.enabled).
  const select::PlanMemoStats& plan_memo_stats() const {
    return plan_memo_.stats();
  }

  /// Summary of the current state (usable mid-campaign too).
  CampaignMetrics summary() const;

  /// Snapshot the complete resumable campaign state (sim/checkpoint.h).
  /// Only meaningful at a round boundary — between step() calls — which is
  /// the only time this class can be observed from outside anyway. The
  /// returned checkpoint's `scenario` is left null; callers that generated
  /// the world from a ScenarioParams attach it for provenance.
  CampaignCheckpoint checkpoint() const;

  /// Rebuild a simulator from a checkpoint so that every subsequent
  /// step()/run() is bit-identical to the uninterrupted campaign. The
  /// caller supplies a mechanism/selector/mobility constructed with the
  /// same parameters as the original (the experiment config owns those);
  /// their names are validated against the checkpoint, then the
  /// mechanism's serialized state is overlaid via restore_state(). Throws
  /// mcs::Error on version, name, round-cursor or history mismatches.
  static Simulator resume(const CampaignCheckpoint& ckpt,
                          std::unique_ptr<incentive::IncentiveMechanism> mechanism,
                          std::unique_ptr<select::TaskSelector> selector,
                          std::unique_ptr<MobilityModel> mobility = nullptr);

  /// Publish rewards for the upcoming round exactly as step() would and
  /// return the selection instance each user would face from its home —
  /// indexed by the user's position in world().users() — without
  /// performing the round. Each instance lists the user's reachable open
  /// tasks (gather()). Used for paired selector comparisons (Fig. 5):
  /// different solvers can be evaluated on identical instances. For
  /// intra-round mechanisms this reflects the round-start prices.
  std::vector<select::SelectionInstance> peek_instances();

 private:
  /// The round-start publish shared by step() and peek_instances(): the
  /// mechanism's update_rewards() for round k, the prices() table, the
  /// open-task scan with the glitch withdrawals (their count goes to
  /// `withdrawn`), the round task index (round_rows_, round_grid_) over
  /// the open rows — cells of side max(grid_cell_size(), sqrt(area / open
  /// rows)); a gather's hits do not depend on the cell size — and, for sparse task ids, the id index the tour walks
  /// read. Returns the published prices.
  const std::vector<Money>& publish_round(Round k, int& withdrawn);

  /// The mechanism's current prices as a dense per-task-row table: its own
  /// reward_rows() when it publishes one, else a snapshot filled through the
  /// id-keyed reward(id). Every bulk phase and every intra-round session
  /// reads prices through this one table. Valid until the next pricing call
  /// or the next prices() call.
  const std::vector<Money>& prices();

  /// Side length of the round loop's user-bucket cells: area-derived
  /// (longest side / 64), so the partition — and with it every per-cell
  /// memo table — is a pure function of the world geometry, never of the
  /// worker count. The round task index uses it as a floor only
  /// (publish_round()).
  Meters grid_cell_size() const;

  /// Per-loop scratch of gather(): the last kSlots distinct (start, reach)
  /// queries, each holding the open rows within exact reach of its start,
  /// ascending. An entry depends only on the round task index, never on
  /// prices or on who has contributed, so it stays valid for the whole
  /// round, across intra-round repricing too. Each loop makes a fresh
  /// scratch per round and per worker: nothing is shared and nothing is
  /// invalidated.
  struct GatherScratch {
    static constexpr std::size_t kSlots = 8;
    struct Query {
      geo::Point start;
      Meters reach = 0.0;
      std::vector<std::uint32_t> rows;
    };
    std::array<Query, kSlots> queries;
    std::size_t filled = 0;  // slots in use
    std::size_t next = 0;    // slot the next new query overwrites
  };

  /// The candidate gather — the only way any loop builds a selection
  /// instance. Fills `inst` for the user at position `pos` starting from
  /// `start`: the indexed open tasks within the user's travel-distance
  /// budget (the DP front-end's exact reach predicate, after an
  /// inflated-radius grid query), not yet contributed to, with a positive
  /// `price`, in ascending task-row order. A (start, reach) query bit-equal
  /// to one in `scratch` reuses its rows; only the per-user contributed and
  /// price filters run again. Const and reentrant with one scratch per
  /// thread, so plan workers gather concurrently.
  void gather(std::uint32_t pos, geo::Point start,
              const std::vector<Money>& price, GatherScratch& scratch,
              select::SelectionInstance& inst) const;

  /// The session engine for round k. A pre-pass advances every user's
  /// mobility (per-user substreams) and dropout and keys the user by the
  /// grid cell of its round-start location. Round-granularity mechanisms
  /// then run at round_worker_count() workers: sorting the keys buckets the
  /// users by cell, workers plan contiguous runs of whole cells against the
  /// frozen round state (one memo table per cell) and commit_sessions()
  /// commits the whole visit order — bit-identical at any worker count.
  /// Intra-round mechanisms run at one worker: in visit order, each
  /// surviving user gets reprice(dirty) (dirty = the rows the previous
  /// session delivered to), prices(), the session-mean record and the same
  /// gather/solve step, then commits as a one-user slice. `price` is the
  /// round-start prices() table.
  void run_sessions(Round k, const std::vector<Money>& price,
                    const std::vector<std::uint32_t>& visit_order,
                    RoundMetrics& rm);

  /// Worker count of the round-granularity sessions: SimulatorParams::shards
  /// when nonzero (kAutoShards resolves to the hardware concurrency), else
  /// plan_threads.
  int round_worker_count() const;

  /// Commit phase A for one user (sim/commit.h): walk `pos`'s planned tour
  /// — abandonment/upload fault draws, the user's own rows (location,
  /// contributed set, earnings, profit) — and record every walked leg into
  /// `seg`, paid at the published per-row `price`. Writes only `pos`'s rows
  /// and `seg`, so disjoint segments walk concurrently.
  void walk_tour(Round k, std::uint32_t pos, const select::Selection& sel,
                 const std::vector<Money>& price, CommitSegment& seg,
                 RoundMetrics& rm);

  /// Buffered batch commit of the users in `order` (a slice of the visit
  /// order): phase A walks every surviving user's tour into contiguous
  /// segments of `order` (fanned over the plan workers when present);
  /// phase B replays payments, events and wasted travel in segment (=
  /// visit) order; phase C applies deliveries grouped by task row and
  /// leaves the touched rows in commit_scratch_.dirty_row_list.
  /// Bit-identical to committing the same users one at a time in order, at
  /// any worker count.
  void commit_sessions(Round k, std::span<const std::uint32_t> order,
                       const std::vector<char>& dropped,
                       const std::vector<select::Selection>& plans,
                       const std::vector<char>& feasible,
                       const std::vector<Money>& price, RoundMetrics& rm);

  /// Lazily build the plan pool plus one selector clone per worker
  /// (selectors' scratch arenas are not reentrant — DESIGN.md §7). Returns
  /// false when the selector is not clonable; callers then run at one
  /// worker on selector_.
  bool ensure_plan_workers(int threads);

  model::World world_;
  std::unique_ptr<incentive::IncentiveMechanism> mechanism_;
  std::unique_ptr<select::TaskSelector> selector_;
  SimulatorParams params_;
  std::unique_ptr<MobilityModel> mobility_;
  FaultInjector faults_;
  incentive::BudgetTracker budget_;
  EventLog events_;
  Round next_round_ = 1;
  std::vector<RoundMetrics> history_;
  // Plan-phase workers (round-granularity mechanisms only), created on
  // first parallel round and reused across rounds.
  std::unique_ptr<ThreadPool> plan_pool_;
  std::vector<std::unique_ptr<select::TaskSelector>> plan_selectors_;
  // Reprice-phase workers (params_.reprice_threads > 1 after resolution),
  // created on first use and reused across rounds. Separate from plan_pool_
  // so resizing one phase's worker count never thrashes the other's
  // selector clones.
  std::unique_ptr<ThreadPool> reprice_pool_;
  // Cross-user plan memo (params_.memo): the campaign's cumulative stats
  // and round count. The tables live in round_memos_.
  select::PlanMemo plan_memo_;
  // Round task index (publish_round): the open task rows, ascending,
  // their locations, and a frozen grid over those whose point ids index
  // round_rows_, its cells sized to about one open task each. All three
  // are rebuilt in place every round.
  std::vector<std::uint32_t> round_rows_;
  std::vector<geo::Point> round_points_;
  geo::FrozenGrid round_grid_;
  // Session-engine state: one PlanMemo per worker (round-granularity only;
  // tables are per cell, stats harvested into plan_memo_ each round) plus
  // persistent scratch so the steady state stays allocation-free.
  std::vector<std::unique_ptr<select::PlanMemo>> round_memos_;
  std::vector<char> round_dropped_;         // per user position, per round
  std::vector<std::uint64_t> round_keys_;   // (cell << 32 | position), sorted
  std::vector<std::uint64_t> round_merge_;  // merge target, swapped with it
  std::vector<select::Selection> round_plans_;
  std::vector<char> round_feasible_;
  // Buffered-commit scratch (sim/commit.h).
  CommitScratch commit_scratch_;
  // prices() table for mechanisms without a row-indexed reward table.
  std::vector<Money> price_snapshot_;
  // Cumulative phase timers (params_.phase_timers; see CampaignMetrics).
  struct PhaseSeconds {
    double prepass = 0.0;
    double plan = 0.0;
    double reprice = 0.0;
    double commit = 0.0;
  };
  PhaseSeconds phase_;
};

}  // namespace mcs::sim
