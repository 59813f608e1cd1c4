// Uniform-grid spatial index over 2-D points.
//
// The platform counts "neighboring mobile users" of every task each round
// (factor X3 of the demand indicator), and every session loop gathers each
// user's reachable tasks; a grid with cell size ~= query radius answers
// those range queries in O(points in 3x3 cells) instead of O(n).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/bbox.h"
#include "geo/distance.h"
#include "geo/point.h"

namespace mcs::geo {

/// Immutable CSR snapshot of a point set on a uniform grid. Built from a
/// dense point vector (ids are the point indices 0..n-1), then queried
/// read-only: a cell's entries live in one
/// contiguous span grouped cell-by-cell (offsets_ + SoA point/id arrays),
/// so a 3x3-cell radius query walks three contiguous row ranges instead of
/// chasing nine separately allocated cell vectors — the cache behavior that
/// makes the neighbor-cache delta sync (world.cpp) cheap at 10^5 tasks.
///
/// Queries clamp the cell range to the grid, test hits with the
/// squared-distance predicate and visit in a deterministic order: cells in
/// row-major order, entries of one cell in ascending point index (the
/// counting sort below is stable). Queries are const and touch no mutable state, so any number of threads
/// may query one frozen grid concurrently.
class FrozenGrid {
 public:
  /// Empty snapshot (queries hit nothing).
  FrozenGrid() = default;

  /// Snapshot `points`; entry ids are the point indices. Points outside
  /// the bounds clamp into border cells (queries stay exact: hits are
  /// distance-tested against the original coordinates).
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
