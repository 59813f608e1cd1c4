// Uniform-grid spatial index over 2-D points.
//
// The platform counts "neighboring mobile users" of every task each round
// (factor X3 of the demand indicator); a grid with cell size ~= query radius
// answers those range queries in O(points in 3x3 cells) instead of O(n).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/bbox.h"
#include "geo/distance.h"
#include "geo/point.h"

namespace mcs::geo {

class SpatialGrid {
 public:
  /// `bounds` must cover all inserted points; `cell_size` is typically the
  /// expected query radius.
  SpatialGrid(BoundingBox bounds, double cell_size);

  /// Insert a point with an opaque caller id. Points outside the bounds are
  /// clamped into the border cells (queries remain exact because candidate
  /// hits are distance-verified against the original coordinates).
  void insert(std::int32_t id, Point p);

  /// Remove one occurrence of id (the one at the given point). Returns
  /// whether something was removed.
  bool remove(std::int32_t id, Point p);

  /// Rebuild from scratch (cheapest way to handle bulk movement).
  void clear();

  /// All ids with distance(center, p) <= radius (Euclidean).
  std::vector<std::int32_t> query_radius(Point center, double radius) const;

  /// Number of points within the radius; avoids materializing ids.
  std::size_t count_radius(Point center, double radius) const;

  /// Visit every id with distance(center, p) <= radius without allocating.
  /// The hit predicate is exactly the one query_radius/count_radius use
  /// (squared-distance compare), so callers doing incremental bookkeeping
  /// see the same membership a full query would.
  template <typename F>
  void for_each_in_radius(Point center, double radius, F&& visit) const {
    const double r2 = radius * radius;
    int cx0, cy0, cx1, cy1;
    cell_range(center, radius, cx0, cy0, cx1, cy1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        const auto& cell = cells_[static_cast<std::size_t>(cy) *
                                      static_cast<std::size_t>(nx_) +
                                  static_cast<std::size_t>(cx)];
        for (const Entry& e : cell) {
          if (squared_euclidean(center, e.p) <= r2) visit(e.id);
        }
      }
    }
  }

  /// Id of the nearest point, or -1 when the grid is empty. Distance is
  /// written to *out_distance when non-null.
  std::int32_t nearest(Point center, double* out_distance = nullptr) const;

  std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::int32_t id;
    Point p;
  };

  std::size_t cell_index(Point p) const;
  void cell_range(Point center, double radius, int& cx0, int& cy0, int& cx1,
                  int& cy1) const;

  BoundingBox bounds_;
  double cell_size_;
  int nx_;
  int ny_;
  std::vector<std::vector<Entry>> cells_;
  std::size_t size_ = 0;
};

/// Immutable CSR snapshot of a point set on the same uniform grid geometry
/// as SpatialGrid. Built once from a dense point vector (ids are the point
/// indices 0..n-1), then queried read-only: a cell's entries live in one
/// contiguous span grouped cell-by-cell (offsets_ + SoA point/id arrays),
/// so a 3x3-cell radius query walks three contiguous row ranges instead of
/// chasing nine separately allocated cell vectors — the cache behavior that
/// makes the neighbor-cache delta sync (world.cpp) cheap at 10^5 tasks.
///
/// Query semantics match SpatialGrid exactly: same clamped cell ranges,
/// same squared-distance hit predicate, and the same visit order (cells in
/// row-major order, entries of one cell in ascending point index — the
/// counting sort below is stable, mirroring SpatialGrid's insertion order
/// when points are inserted in index order). Hot loops under an existing
/// SpatialGrid therefore migrate bit-identically, journals included.
/// Queries are const and touch no mutable state, so any number of threads
/// may query one frozen grid concurrently.
class FrozenGrid {
 public:
  /// Empty snapshot (queries hit nothing).
  FrozenGrid() = default;

  /// Snapshot `points`; entry ids are the point indices. Points outside
  /// the bounds clamp into border cells, exactly like SpatialGrid::insert.
  FrozenGrid(BoundingBox bounds, double cell_size,
             const std::vector<Point>& points);

  /// Re-snapshot in place: the result equals a freshly constructed grid
  /// over the same arguments, but the CSR arrays keep their capacity, so a
  /// rebuild whose cell count and point count fit what an earlier build
  /// sized allocates nothing.
  void rebuild(BoundingBox bounds, double cell_size,
               const std::vector<Point>& points);

  std::size_t size() const { return ids_.size(); }

  /// Number of points with distance(center, p) <= radius.
  std::size_t count_radius(Point center, double radius) const;

  /// Visit every point index with distance(center, p) <= radius, without
  /// allocating, in the deterministic order documented above.
  template <typename F>
  void for_each_in_radius(Point center, double radius, F&& visit) const {
    if (ids_.empty()) return;
    const double r2 = radius * radius;
    int cx0, cy0, cx1, cy1;
    cell_range(center, radius, cx0, cy0, cx1, cy1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      // Cells [cy][cx0..cx1] are adjacent in the CSR layout: one contiguous
      // entry span per grid row covers the whole row of the query window.
      const std::size_t row = static_cast<std::size_t>(cy) *
                              static_cast<std::size_t>(nx_);
      const std::uint32_t lo = offsets_[row + static_cast<std::size_t>(cx0)];
      const std::uint32_t hi =
          offsets_[row + static_cast<std::size_t>(cx1) + 1];
      for (std::uint32_t e = lo; e < hi; ++e) {
        if (squared_euclidean(center, points_[e]) <= r2) visit(ids_[e]);
      }
    }
  }

 private:
  void cell_range(Point center, double radius, int& cx0, int& cy0, int& cx1,
                  int& cy1) const;

  BoundingBox bounds_;
  double cell_size_ = 1.0;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<std::uint32_t> offsets_;  // nx*ny + 1 CSR cell offsets
  std::vector<Point> points_;           // entry coordinates, cell-grouped
  std::vector<std::int32_t> ids_;       // entry point indices, same order
};

}  // namespace mcs::geo
