#include "geo/spatial_grid.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "geo/distance.h"

namespace mcs::geo {

FrozenGrid::FrozenGrid(BoundingBox bounds, double cell_size,
                       const std::vector<Point>& points) {
  rebuild(bounds, cell_size, points);
}

void FrozenGrid::rebuild(BoundingBox bounds, double cell_size,
                         const std::vector<Point>& points) {
  MCS_CHECK(cell_size > 0.0, "spatial grid cell size must be positive");
  bounds_ = bounds;
  cell_size_ = cell_size;
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds.width() / cell_size)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds.height() / cell_size)));
  const std::size_t n_cells =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  const std::size_t n = points.size();

  // Stable counting sort by cell: count, exclusive prefix, scatter in point
  // order — each cell's entries end up in ascending point index. The scatter
  // uses offsets_ itself as the per-cell cursor (recomputing each point's
  // cell instead of caching it), so the only storage is the three member
  // arrays, reused across rebuilds.
  const auto cell_of = [&](Point p) {
    const Point c = bounds_.clamp(p);
    int cx = static_cast<int>((c.x - bounds_.lo.x) / cell_size_);
    int cy = static_cast<int>((c.y - bounds_.lo.y) / cell_size_);
    cx = std::clamp(cx, 0, nx_ - 1);
    cy = std::clamp(cy, 0, ny_ - 1);
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(cx);
  };
  offsets_.assign(n_cells + 1, 0);
  for (const Point& p : points) ++offsets_[cell_of(p) + 1];
  for (std::size_t c = 0; c < n_cells; ++c) offsets_[c + 1] += offsets_[c];
  points_.resize(n);
  ids_.resize(n);
  // offsets_[c] walks from the start of cell c to its end, which is the
  // start of cell c + 1; shifting the array up by one slot restores it.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = offsets_[cell_of(points[i])]++;
    points_[slot] = points[i];
    ids_[slot] = static_cast<std::int32_t>(i);
  }
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

void FrozenGrid::cell_range(Point center, double radius, int& cx0, int& cy0,
                            int& cx1, int& cy1) const {
  cx0 = std::clamp(
      static_cast<int>((center.x - radius - bounds_.lo.x) / cell_size_), 0,
      nx_ - 1);
  cy0 = std::clamp(
      static_cast<int>((center.y - radius - bounds_.lo.y) / cell_size_), 0,
      ny_ - 1);
  cx1 = std::clamp(
      static_cast<int>((center.x + radius - bounds_.lo.x) / cell_size_), 0,
      nx_ - 1);
  cy1 = std::clamp(
      static_cast<int>((center.y + radius - bounds_.lo.y) / cell_size_), 0,
      ny_ - 1);
}

std::size_t FrozenGrid::count_radius(Point center, double radius) const {
  MCS_CHECK(radius >= 0.0, "query radius must be non-negative");
  std::size_t count = 0;
  for_each_in_radius(center, radius, [&count](std::int32_t) { ++count; });
  return count;
}

}  // namespace mcs::geo
