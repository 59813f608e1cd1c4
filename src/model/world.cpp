#include "model/world.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"

namespace mcs::model {

namespace {

#ifndef NDEBUG
// Debug tripwire for the NOT-thread-safe neighbor cache: claims the flag for
// the guarded scope; a second concurrent claimant fails loudly. Single-
// threaded re-entry cannot happen (no guarded method calls another guarded
// method while holding its guard).
class CacheBusyGuard {
 public:
  explicit CacheBusyGuard(std::atomic<int>& flag) : flag_(flag) {
    MCS_ASSERT(flag_.exchange(1, std::memory_order_acq_rel) == 0,
               "World neighbor cache accessed concurrently — the cache "
               "mutates under const and is documented single-consumer "
               "(world.h); give each thread its own World");
  }
  ~CacheBusyGuard() { flag_.store(0, std::memory_order_release); }

  CacheBusyGuard(const CacheBusyGuard&) = delete;
  CacheBusyGuard& operator=(const CacheBusyGuard&) = delete;

 private:
  std::atomic<int>& flag_;
};
#define MCS_NCACHE_GUARD(flag) const CacheBusyGuard ncache_busy_guard(flag)
#else
#define MCS_NCACHE_GUARD(flag) static_cast<void>(flag)
#endif

}  // namespace

World::World(geo::BoundingBox area, geo::TravelModel travel,
             Meters neighbor_radius)
    : area_(area),
      travel_(travel),
      neighbor_radius_(neighbor_radius),
      tstore_(std::make_unique<TaskStore>()),
      ustore_(std::make_unique<UserStore>()),
      tasks_(tstore_.get()),
      users_(ustore_.get()) {
  MCS_CHECK(neighbor_radius >= 0.0, "neighbor radius must be non-negative");
  MCS_CHECK(travel.speed_mps > 0.0, "travel speed must be positive");
  MCS_CHECK(travel.cost_per_meter >= 0.0, "travel cost must be non-negative");
}

World::World(World&& o) noexcept
    : area_(o.area_),
      travel_(o.travel_),
      neighbor_radius_(o.neighbor_radius_),
      tstore_(std::move(o.tstore_)),
      ustore_(std::move(o.ustore_)),
      tasks_(std::move(o.tasks_)),
      users_(std::move(o.users_)),
      ncache_(std::move(o.ncache_)) {}

World& World::operator=(World&& o) noexcept {
  if (this != &o) {
    area_ = o.area_;
    travel_ = o.travel_;
    neighbor_radius_ = o.neighbor_radius_;
    tstore_ = std::move(o.tstore_);
    ustore_ = std::move(o.ustore_);
    tasks_ = std::move(o.tasks_);
    users_ = std::move(o.users_);
    ncache_ = std::move(o.ncache_);
  }
  return *this;
}

World::World(const World& o)
    : area_(o.area_),
      travel_(o.travel_),
      neighbor_radius_(o.neighbor_radius_),
      tstore_(std::make_unique<TaskStore>(*o.tstore_)),
      ustore_(std::make_unique<UserStore>(*o.ustore_)),
      ncache_(o.ncache_) {
  tasks_.rebind(tstore_.get());
  users_.rebind(ustore_.get());
}

World& World::operator=(const World& o) {
  if (this != &o) {
    area_ = o.area_;
    travel_ = o.travel_;
    neighbor_radius_ = o.neighbor_radius_;
    *tstore_ = *o.tstore_;
    *ustore_ = *o.ustore_;
    tasks_.rebind(tstore_.get());
    users_.rebind(ustore_.get());
    ncache_ = o.ncache_;
  }
  return *this;
}

void World::reserve(std::size_t tasks, std::size_t users) {
  tstore_->id.reserve(tasks);
  tstore_->location.reserve(tasks);
  tstore_->deadline.reserve(tasks);
  tstore_->required.reserve(tasks);
  tstore_->measurements.reserve(tasks);
  tstore_->contributors.reserve(tasks);
  tasks_.views_.reserve(tasks);
  ustore_->id.reserve(users);
  ustore_->home.reserve(users);
  ustore_->location.reserve(users);
  ustore_->time_budget.reserve(users);
  ustore_->total_reward.reserve(users);
  ustore_->total_cost.reserve(users);
  ustore_->contributed.reserve(users);
  users_.views_.reserve(users);
}

TaskId World::add_task(geo::Point location, Round deadline, int required) {
  MCS_CHECK(deadline >= 1, "task deadline must be at least round 1");
  MCS_CHECK(required >= 1, "task must require at least one measurement");
  const auto row = static_cast<std::uint32_t>(tstore_->size());
  const auto id = static_cast<TaskId>(row);
  tstore_->id.push_back(id);
  tstore_->location.push_back(location);
  tstore_->deadline.push_back(deadline);
  tstore_->required.push_back(required);
  tstore_->measurements.emplace_back();
  tstore_->contributors.emplace_back();
  tasks_.views_.push_back(Task(tstore_.get(), row));
  return id;
}

UserId World::add_user(geo::Point home, Seconds time_budget) {
  MCS_CHECK(time_budget >= 0.0, "time budget must be non-negative");
  const auto row = static_cast<std::uint32_t>(ustore_->size());
  const auto id = static_cast<UserId>(row);
  ustore_->id.push_back(id);
  ustore_->home.push_back(home);
  ustore_->location.push_back(home);
  ustore_->time_budget.push_back(time_budget);
  ustore_->total_reward.push_back(0.0);
  ustore_->total_cost.push_back(0.0);
  ustore_->contributed.emplace_back();
  users_.views_.push_back(User(ustore_.get(), row));
  return id;
}

// add_task() assigns dense ids (position == id), which the stores' inline
// fast path serves; worlds assembled directly through the mutable tasks()
// accessor may carry arbitrary ids and resolve through the lazily built
// id→row hash index (store.h) — O(1) amortized, never a per-lookup scan.
Task& World::task(TaskId id) {
  const std::uint32_t row = tstore_->row_of(id);
  if (row == kNoRow) throw Error("unknown task id");
  return tasks_[row];
}

const Task& World::task(TaskId id) const {
  return const_cast<World*>(this)->task(id);
}

User& World::user(UserId id) {
  const std::uint32_t row = ustore_->row_of(id);
  if (row == kNoRow) throw Error("unknown user id");
  return users_[row];
}

const User& World::user(UserId id) const {
  return const_cast<World*>(this)->user(id);
}

bool World::neighbor_cache_usable() const {
  if (!ncache_.valid) return false;
  if (ncache_.user_pos.size() != ustore_->size()) return false;
  if (ncache_.task_pos.size() != tstore_->size()) return false;
  // Task locations are immutable on Task, but the mutable tasks() accessor
  // lets tests append tasks later; a cheap point compare catches swaps too.
  for (std::size_t i = 0; i < tstore_->size(); ++i) {
    if (!(tstore_->location[i] == ncache_.task_pos[i])) return false;
  }
  return true;
}

void World::rebuild_neighbor_cache(ThreadPool* pool, int workers) const {
  // Task grid at cell size = query radius (the delta sync's 3x3-cell task
  // query). It stays exact until the next rebuild: task locations are
  // immutable between rebuilds by the usable() contract.
  ncache_.task_pos.assign(tstore_->location.begin(), tstore_->location.end());
  ncache_.task_grid.rebuild(area_, neighbor_cell(), ncache_.task_pos);
  recount_neighbor_cache(pool, workers);
}

void World::recount_neighbor_cache(ThreadPool* pool, int workers) const {
  // Snapshot the user positions into a frozen user grid (same cell size as
  // the task grid) and count every task against it. The grid is only read
  // by this count pass: user movement afterwards makes it stale, which is
  // fine because the delta sync never consults it. The per-task counting —
  // the O(T * users-in-3x3-cells) bulk — fans out over disjoint count slots
  // with the exact predicate of a serial pass, so counts are identical at
  // any worker count. Every array is reused, so a recount at unchanged
  // sizes allocates nothing.
  ncache_.user_pos.assign(ustore_->location.begin(), ustore_->location.end());
  ncache_.user_grid.rebuild(area_, neighbor_cell(), ncache_.user_pos);
  ncache_.counts.resize(tstore_->size());
  parallel_ranges(pool, workers, tstore_->size(),
                  [this](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                      ncache_.counts[i] =
                          static_cast<int>(ncache_.user_grid.count_radius(
                              ncache_.task_pos[i], neighbor_radius_));
                    }
                  });
  ++ncache_.recounts;
  ncache_.valid = true;
}

void World::refresh_neighbor_cache(ThreadPool* pool, int workers) const {
  MCS_NCACHE_GUARD(ncache_busy_);
  const int w = pool == nullptr ? 1 : std::max(workers, 1);
  if (!neighbor_cache_usable()) {
    rebuild_neighbor_cache(pool, w);
    return;
  }
  const std::size_t users = ustore_->size();
  std::size_t moved = 0;
  for (std::size_t i = 0; i < users; ++i) {
    if (!(ustore_->location[i] == ncache_.user_pos[i])) ++moved;
  }
  // Cost model. Both grids share one cell size c (the radius), so a radius
  // query scans 3x3 cells: a task-grid query visits ~9c^2 * T/A entries and
  // a user-grid query ~9c^2 * U/A (A = area, uniform density). The delta
  // sync runs two task-grid queries per mover, ~2 * moved * 9c^2 * T/A; a
  // recount runs one user-grid query per task, split over the workers,
  // ~T * 9c^2 * U/A / w. The 9c^2 * T/A factor cancels, so recounting is
  // cheaper exactly when 2 * moved * w > U. Either side yields the same
  // integer counts, so the choice only moves wall time.
  if (2 * moved * static_cast<std::size_t>(w) > users) {
    recount_neighbor_cache(pool, w);
  } else {
    sync_neighbor_cache();
  }
}

void World::sync_neighbor_cache() const {
  // Delta update: a user who moved from p0 to p1 leaves the neighborhood of
  // every task within radius of p0 and enters that of every task within
  // radius of p1. The task grid answers both "tasks near p" queries with
  // the exact predicate a full recount uses, so counts stay integer-exact
  // (and integer adds commute, so the order of the moves is irrelevant).
  // Only the frozen task grid is consulted: the user grid is a rebuild-time
  // artifact nobody reads between rebuilds, so a moved user costs two CSR
  // radius queries and nothing else.
  std::vector<int>& counts = ncache_.counts;
  for (std::size_t i = 0; i < ustore_->size(); ++i) {
    const geo::Point now = ustore_->location[i];
    if (now == ncache_.user_pos[i]) continue;
    ncache_.task_grid.for_each_in_radius(
        ncache_.user_pos[i], neighbor_radius_,
        [&counts](std::int32_t t) { --counts[static_cast<std::size_t>(t)]; });
    ncache_.task_grid.for_each_in_radius(
        now, neighbor_radius_,
        [&counts](std::int32_t t) { ++counts[static_cast<std::size_t>(t)]; });
    ncache_.user_pos[i] = now;
  }
}

const std::vector<int>& World::neighbor_counts() const {
  MCS_NCACHE_GUARD(ncache_busy_);
  if (neighbor_cache_usable()) {
    sync_neighbor_cache();
  } else {
    rebuild_neighbor_cache(nullptr, 1);
  }
  return ncache_.counts;
}

long long World::total_required() const {
  long long total = 0;
  for (const int r : tstore_->required) total += r;
  return total;
}

long long World::total_received() const {
  long long total = 0;
  for (const auto& m : tstore_->measurements) {
    total += static_cast<long long>(m.size());
  }
  return total;
}

Money World::total_paid() const {
  Money total = 0.0;
  for (const auto& ms : tstore_->measurements) {
    for (const Measurement& m : ms) total += m.reward_paid;
  }
  return total;
}

}  // namespace mcs::model
