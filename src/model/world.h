// World: the shared state of one crowdsensing deployment — the task set, the
// user population, the deployment area and the travel model. Owned by the
// simulator; incentive mechanisms and selectors observe it read-only.
//
// Storage is structure-of-arrays (model/store.h): every entity field lives
// in its own dense column, and the `User&`/`Task&` references handed out
// here are row views (model/user.h, model/task.h) — same accessor API as
// the historical array-of-objects layout, but single-field sweeps (mobility
// writes, neighbor-cache location diffs, shard bucketing) stream packed
// cache lines. Rows are append-only, so positions (row indices) are stable
// and views are only invalidated by destroying or copy-assigning the World.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "geo/bbox.h"
#include "geo/path.h"
#include "geo/spatial_grid.h"
#include "model/store.h"
#include "model/task.h"
#include "model/user.h"
#include "model/view_list.h"

namespace mcs {
class ThreadPool;
}

namespace mcs::model {

using TaskList = ViewList<Task, TaskStore>;
using UserList = ViewList<User, UserStore>;

class World {
 public:
  World(geo::BoundingBox area, geo::TravelModel travel, Meters neighbor_radius);

  // Stores are heap-held, so moving a World never invalidates the row views
  // (they point into the stores, not into the World object). Copying clones
  // the stores and regenerates the views over the clone.
  World(World&& o) noexcept;
  World& operator=(World&& o) noexcept;
  World(const World& o);
  World& operator=(const World& o);

  const geo::BoundingBox& area() const { return area_; }
  const geo::TravelModel& travel() const { return travel_; }
  Meters neighbor_radius() const { return neighbor_radius_; }

  /// Reserve store capacity for `tasks` tasks and `users` users in total,
  /// so bulk generation grows every column once instead of by doubling.
  void reserve(std::size_t tasks, std::size_t users);

  TaskId add_task(geo::Point location, Round deadline, int required);
  UserId add_user(geo::Point home, Seconds time_budget);

  std::size_t num_tasks() const { return tstore_->size(); }
  std::size_t num_users() const { return ustore_->size(); }

  Task& task(TaskId id);
  const Task& task(TaskId id) const;
  User& user(UserId id);
  const User& user(UserId id) const;

  const TaskList& tasks() const { return tasks_; }
  const UserList& users() const { return users_; }
  TaskList& tasks() { return tasks_; }
  UserList& users() { return users_; }

  /// The raw structure-of-arrays columns. Read-only: the hot phases that
  /// sweep a single field (neighbor sync, the round loop's pre-pass and
  /// cell bucketing) read these directly instead of striding over views.
  const UserStore& user_store() const { return *ustore_; }
  const TaskStore& task_store() const { return *tstore_; }

  /// Mutable column access for the simulator's bulk commit-apply path,
  /// which writes deliveries grouped by task row / user row instead of
  /// going through one view call per field. Restricted by contract to the
  /// per-entity *state* columns (measurements, contributors, contributed,
  /// location, total_reward, total_cost): row counts, ids and task
  /// geometry must not change through these — the neighbor cache, the row
  /// views and the id→row indices key on those.
  UserStore& user_store_mut() { return *ustore_; }
  TaskStore& task_store_mut() { return *tstore_; }

  /// N_i for every task: number of users within neighbor_radius of the task
  /// location (one entry per task *position*). Backed by a persistent
  /// spatial grid: the first call (and any call after the task set or the
  /// population changed) builds the grid and counts every task serially;
  /// subsequent calls diff the user positions against the last-synced
  /// snapshot and delta-update only the counts of tasks near a moved user —
  /// O(moved) instead of O(U + T·r-cells) per call, and allocation-free
  /// once warm. This lazy path never recounts a usable cache; a bulk
  /// round-start update goes through refresh_neighbor_cache() instead.
  /// The cache is synced lazily on read, so callers may move users through
  /// User::set_location freely between calls. Counts are exact integers:
  /// the delta path uses the same distance predicate as a full recount, so
  /// the result is always identical to the brute-force O(U·T) scan.
  /// NOT thread-safe (the cache mutates under const): concurrent readers
  /// must hold distinct World instances, which is what the experiment
  /// runner's one-simulator-per-repetition shape guarantees. Debug builds
  /// carry a tripwire: concurrent entry to any cache-syncing accessor
  /// throws mcs::Error instead of racing silently.
  const std::vector<int>& neighbor_counts() const;

  /// Bring the neighbor cache up to date with the current user positions,
  /// choosing the cheaper of two exact paths. `pool` = nullptr or
  /// `workers` <= 1 runs serially (parallel_ranges semantics).
  ///  - Not usable (first use, or the task/user set changed): full rebuild
  ///    of both grids, the per-task count pass fanned over the workers.
  ///  - Usable: one O(U) pass counts the moved users. When
  ///    2 * moved * workers > U, a recount — a fresh user grid and the
  ///    pooled count pass; the task grid is kept — beats replaying the
  ///    moves (the cost model is derived in world.cpp); otherwise the
  ///    serial delta sync runs, exactly as neighbor_counts() would.
  /// Counts are integer-exact on every path, so the choice never changes a
  /// result. Allocation-free once warm at unchanged sizes. The simulator
  /// calls this once per round, before the round-start publish; the caller
  /// must be the cache's single consumer (same contract as
  /// neighbor_counts()).
  void refresh_neighbor_cache(ThreadPool* pool, int workers) const;

  /// How many times the cache has counted every task from scratch: full
  /// rebuilds plus round-start recounts (a delta sync does not count).
  /// Read-only diagnostic for tests and benches that must tell which side
  /// of refresh_neighbor_cache()'s cost model ran; copies carry it along.
  std::uint64_t neighbor_recounts() const { return ncache_.recounts; }

  /// Total number of measurements required across tasks (sum of phi_i);
  /// the denominator of Eq. 9.
  long long total_required() const;

  /// Total measurements received across tasks.
  long long total_received() const;

  /// Total rewards paid out so far (must never exceed the platform budget).
  Money total_paid() const;

 private:
  /// True when the cached grids still describe the current task set and
  /// user-population size (locations may have drifted — that is what the
  /// delta sync handles; adding/removing tasks or users forces a rebuild).
  bool neighbor_cache_usable() const;
  /// Full rebuild: task grid, then recount_neighbor_cache().
  void rebuild_neighbor_cache(ThreadPool* pool, int workers) const;
  /// User grid + the one per-task count pass.
  void recount_neighbor_cache(ThreadPool* pool, int workers) const;
  void sync_neighbor_cache() const;
  /// Cell size of both neighbor grids: the query radius, so a radius query
  /// scans a 3x3 cell neighborhood.
  Meters neighbor_cell() const {
    return neighbor_radius_ > 0.0 ? neighbor_radius_ : area_.diameter();
  }

  geo::BoundingBox area_;
  geo::TravelModel travel_;
  Meters neighbor_radius_;
  std::unique_ptr<TaskStore> tstore_;
  std::unique_ptr<UserStore> ustore_;
  TaskList tasks_;
  UserList users_;

  // Lazily maintained neighbor-count cache (see neighbor_counts()).
  //
  // Both spatial indices are CSR snapshots (geo::FrozenGrid), re-taken in
  // place. The task grid is taken at a full rebuild and stays exact until
  // the next one by contract (task locations are immutable; any task/user
  // set change forces a rebuild through neighbor_cache_usable()), and the
  // delta sync queries only it. The user grid is re-taken by every rebuild
  // or recount, consulted only by that count pass, and goes stale as users
  // move afterwards — nothing reads it in between, which is why the sync
  // pays no per-moved-user grid maintenance.
  struct NeighborCache {
    bool valid = false;
    geo::FrozenGrid user_grid;         // ids are user positions
    geo::FrozenGrid task_grid;         // ids are task positions
    std::vector<geo::Point> user_pos;  // last-synced user locations
    std::vector<geo::Point> task_pos;  // task set at build time
    std::vector<int> counts;           // one per task position
    std::uint64_t recounts = 0;        // see neighbor_recounts()
  };
  mutable NeighborCache ncache_;
  // Debug tripwire for the documented NOT-thread-safe contract: every
  // cache-syncing entry point claims this flag for its duration, so two
  // concurrent readers fail an MCS_ASSERT instead of racing the mutable
  // cache. Compiled to nothing under NDEBUG.
  mutable std::atomic<int> ncache_busy_{0};
};

}  // namespace mcs::model
