// Dense travel graph for a selection instance: node 0 is the user's start
// location, node i (1-based) is candidate i-1. Matches the graph
// G = (V, E, W, R) used in the paper's NP-hardness proof.
//
// A graph can be rebuilt in place (`build()`), reusing its storage — exact
// solvers that run once per user session keep one graph as scratch instead
// of allocating a fresh one per call.
#pragma once

#include <vector>

#include "select/instance.h"

namespace mcs::select {

class TravelGraph {
 public:
  /// Empty graph; call build() before use.
  TravelGraph() = default;

  explicit TravelGraph(const SelectionInstance& instance);

  /// (Re)build the graph from an instance, reusing internal storage.
  void build(const SelectionInstance& instance);

  /// (Re)build from an explicit candidate subset of `instance` (e.g. the
  /// DP's pruned view); only the instance's start is read.
  void build(const SelectionInstance& instance,
             const std::vector<Candidate>& candidates);

  /// Number of candidates m.
  std::size_t num_candidates() const { return m_; }

  /// Distance between node i and node j (0 = start, 1..m = candidates).
  Meters dist(std::size_t i, std::size_t j) const {
    return d_[i * (m_ + 1) + j];
  }

  /// Reward of candidate node i (1..m); node 0 has reward 0.
  Money reward(std::size_t i) const { return r_[i]; }

  /// The candidate's task id for node i (1..m).
  TaskId task(std::size_t i) const;

  /// Smallest incoming edge weight of candidate node i from any other node
  /// (start or candidate). Used by branch-and-bound optimistic bounds.
  Meters min_incoming(std::size_t i) const { return min_in_[i]; }

 private:
  std::size_t m_ = 0;
  std::vector<Meters> d_;      // (m+1)^2 row-major
  std::vector<Money> r_;       // m+1
  std::vector<TaskId> tasks_;  // m+1 (index 0 unused)
  std::vector<Meters> min_in_; // m+1
};

}  // namespace mcs::select
