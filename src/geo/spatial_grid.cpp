#include "geo/spatial_grid.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/types.h"
#include "geo/distance.h"

namespace mcs::geo {

SpatialGrid::SpatialGrid(BoundingBox bounds, double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  MCS_CHECK(cell_size > 0.0, "spatial grid cell size must be positive");
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds.width() / cell_size)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds.height() / cell_size)));
  cells_.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_));
}

std::size_t SpatialGrid::cell_index(Point p) const {
  const Point c = bounds_.clamp(p);
  int cx = static_cast<int>((c.x - bounds_.lo.x) / cell_size_);
  int cy = static_cast<int>((c.y - bounds_.lo.y) / cell_size_);
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
         static_cast<std::size_t>(cx);
}

void SpatialGrid::insert(std::int32_t id, Point p) {
  cells_[cell_index(p)].push_back({id, p});
  ++size_;
}

bool SpatialGrid::remove(std::int32_t id, Point p) {
  auto& cell = cells_[cell_index(p)];
  for (auto it = cell.begin(); it != cell.end(); ++it) {
    if (it->id == id && it->p == p) {
      cell.erase(it);
      --size_;
      return true;
    }
  }
  return false;
}

void SpatialGrid::clear() {
  for (auto& cell : cells_) cell.clear();
  size_ = 0;
}

void SpatialGrid::cell_range(Point center, double radius, int& cx0, int& cy0,
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

std::vector<std::int32_t> SpatialGrid::query_radius(Point center,
                                                    double radius) const {
  MCS_CHECK(radius >= 0.0, "query radius must be non-negative");
  std::vector<std::int32_t> out;
  const double r2 = radius * radius;
  int cx0, cy0, cx1, cy1;
  cell_range(center, radius, cx0, cy0, cx1, cy1);
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      const auto& cell =
          cells_[static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(cx)];
      for (const Entry& e : cell) {
        if (squared_euclidean(center, e.p) <= r2) out.push_back(e.id);
      }
    }
  }
  return out;
}

std::size_t SpatialGrid::count_radius(Point center, double radius) const {
  MCS_CHECK(radius >= 0.0, "query radius must be non-negative");
  std::size_t count = 0;
  const double r2 = radius * radius;
  int cx0, cy0, cx1, cy1;
  cell_range(center, radius, cx0, cy0, cx1, cy1);
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      const auto& cell =
          cells_[static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(cx)];
      for (const Entry& e : cell) {
        if (squared_euclidean(center, e.p) <= r2) ++count;
      }
    }
  }
  return count;
}

std::int32_t SpatialGrid::nearest(Point center, double* out_distance) const {
  if (size_ == 0) return kInvalidTask;
  // Expanding-ring search: examine cells in rings of increasing radius until
  // the best candidate is provably closer than any unexamined cell.
  std::int32_t best_id = -1;
  double best_d2 = kInf;
  const int max_ring = std::max(nx_, ny_);
  for (int ring = 0; ring <= max_ring; ++ring) {
    const double reach = cell_size_ * static_cast<double>(ring);
    if (best_id >= 0 && best_d2 <= reach * reach) break;
    int cx0, cy0, cx1, cy1;
    cell_range(center, reach + cell_size_, cx0, cy0, cx1, cy1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        const auto& cell = cells_[static_cast<std::size_t>(cy) *
                                      static_cast<std::size_t>(nx_) +
                                  static_cast<std::size_t>(cx)];
        for (const Entry& e : cell) {
          const double d2 = squared_euclidean(center, e.p);
          if (d2 < best_d2) {
            best_d2 = d2;
            best_id = e.id;
          }
        }
      }
    }
  }
  if (out_distance != nullptr) *out_distance = std::sqrt(best_d2);
  return best_id;
}

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
  // order — each cell's entries end up in ascending point index, matching a
  // SpatialGrid filled by inserting points 0..n-1 in order. The scatter
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
