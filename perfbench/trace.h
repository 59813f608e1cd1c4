// Forwarding layers for the traced run: they time the calls the simulator
// makes into the selection and incentive modules from outside, and are
// otherwise pass-through, so a traced campaign's digest equals the
// untraced one (checked on every traced run and in the self-test).
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "incentive/mechanism.h"
#include "select/selector.h"

namespace perfbench {

/// Per-selector-instance counters. Each clone owns one block, and a clone
/// is used by one plan worker at a time, so blocks need no atomics.
struct SelectStats {
  long long calls = 0;
  long long candidates = 0;  // sum of instance candidate counts
  long long nonempty = 0;    // calls that returned a non-empty tour
  double busy_s = 0.0;

  SelectStats& operator+=(const SelectStats& o);
};

/// Counters of the mechanism's pricing calls (made from the step thread).
struct IncentiveStats {
  long long update_calls = 0;
  double update_s = 0.0;
  long long reprice_calls = 0;
  double reprice_s = 0.0;

  IncentiveStats& operator+=(const IncentiveStats& o);
};

/// Owns the counter blocks of every wrapper built from it.
class Tracer {
 public:
  std::unique_ptr<mcs::select::TaskSelector> wrap(
      std::unique_ptr<mcs::select::TaskSelector> inner);
  std::unique_ptr<mcs::incentive::IncentiveMechanism> wrap(
      std::unique_ptr<mcs::incentive::IncentiveMechanism> inner);

  /// Sum over every selector block (call after the campaigns finished).
  SelectStats select_totals() const;
  IncentiveStats incentive_totals() const;

 private:
  friend class TracedSelector;
  SelectStats* new_select_block();

  mutable std::mutex mu_;  // guards the block lists, not the blocks
  std::deque<SelectStats> select_blocks_;
  std::deque<IncentiveStats> incentive_blocks_;
};

}  // namespace perfbench
