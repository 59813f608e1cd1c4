// Optional per-measurement event trace. Disabled by default to keep sweep
// memory flat; examples and debugging runs enable it to replay exactly who
// sensed what, where and for how much — including, under fault injection,
// the attempts that never made it (accepted == false), so fault traces can
// be replayed measurement by measurement.
#pragma once

#include <utility>
#include <vector>

#include "common/types.h"

namespace mcs::sim {

struct SensingEvent {
  Round round = 0;
  UserId user = kInvalidUser;
  TaskId task = kInvalidTask;
  Money reward = 0.0;         // 0 for a lost upload (nothing was paid)
  Meters leg_distance = 0.0;  // distance walked for this leg of the tour
  // False when the upload was lost in transit: the user walked the leg but
  // the platform received nothing — no payment, no task progress.
  bool accepted = true;
  // True when the accepted reading was corrupted. The platform cannot tell;
  // the trace keeps the ground truth.
  bool corrupted = false;
};

class EventLog {
 public:
  explicit EventLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void record(const SensingEvent& e) {
    if (enabled_) events_.push_back(e);
  }

  const std::vector<SensingEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Replace the trace with a checkpointed one (resume path). Keeps the
  /// enabled flag: a disabled log stays empty and a restored-then-resumed
  /// campaign appends to the restored prefix exactly where it left off.
  void restore(std::vector<SensingEvent> events) {
    events_ = std::move(events);
  }

 private:
  bool enabled_;
  std::vector<SensingEvent> events_;
};

}  // namespace mcs::sim
