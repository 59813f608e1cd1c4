#include "select/travel_graph.h"

#include "common/error.h"
#include "geo/distance.h"

namespace mcs::select {

TravelGraph::TravelGraph(const SelectionInstance& instance) { build(instance); }

void TravelGraph::build(const SelectionInstance& instance) {
  build(instance, instance.candidates);
}

void TravelGraph::build(const SelectionInstance& instance,
                        const std::vector<Candidate>& candidates) {
  m_ = candidates.size();
  const std::size_t n = m_ + 1;
  d_.assign(n * n, 0.0);
  r_.assign(n, 0.0);
  tasks_.assign(n, kInvalidTask);
  min_in_.assign(n, kInf);

  for (std::size_t i = 0; i < m_; ++i) {
    r_[i + 1] = candidates[i].reward;
    tasks_[i + 1] = candidates[i].task;
  }

  // Start row: always per-user (the start location is what varies).
  for (std::size_t j = 0; j < m_; ++j) {
    const Meters d = geo::euclidean(instance.start, candidates[j].location);
    d_[j + 1] = d;
    d_[(j + 1) * n] = d;
  }

  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = i + 1; j < m_; ++j) {
      const Meters d =
          geo::euclidean(candidates[i].location, candidates[j].location);
      d_[(i + 1) * n + (j + 1)] = d;
      d_[(j + 1) * n + (i + 1)] = d;
    }
  }

  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      min_in_[i] = std::min(min_in_[i], d_[j * n + i]);
    }
  }
}

TaskId TravelGraph::task(std::size_t i) const {
  MCS_CHECK(i >= 1 && i <= m_, "travel graph node out of range");
  return tasks_[i];
}

}  // namespace mcs::select
