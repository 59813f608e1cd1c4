#include "trace.h"

#include <utility>

#include "campaign.h"

namespace perfbench {

namespace mi = mcs::incentive;
namespace ms = mcs::select;

SelectStats& SelectStats::operator+=(const SelectStats& o) {
  calls += o.calls;
  candidates += o.candidates;
  nonempty += o.nonempty;
  busy_s += o.busy_s;
  return *this;
}

IncentiveStats& IncentiveStats::operator+=(const IncentiveStats& o) {
  update_calls += o.update_calls;
  update_s += o.update_s;
  reprice_calls += o.reprice_calls;
  reprice_s += o.reprice_s;
  return *this;
}

class TracedSelector final : public ms::TaskSelector {
 public:
  TracedSelector(std::unique_ptr<ms::TaskSelector> inner, Tracer& tracer)
      : inner_(std::move(inner)),
        tracer_(tracer),
        stats_(tracer.new_select_block()) {}

  const char* name() const override { return inner_->name(); }

  ms::Selection select(const ms::SelectionInstance& instance) const override {
    const Clock::time_point t0 = Clock::now();
    ms::Selection sel = inner_->select(instance);
    stats_->busy_s += seconds_since(t0);
    ++stats_->calls;
    stats_->candidates += static_cast<long long>(instance.candidates.size());
    if (!sel.empty()) ++stats_->nonempty;
    return sel;
  }

  int exact_candidate_limit() const override {
    return inner_->exact_candidate_limit();
  }

  std::unique_ptr<ms::TaskSelector> clone() const override {
    std::unique_ptr<ms::TaskSelector> c = inner_->clone();
    if (c == nullptr) return nullptr;
    return std::make_unique<TracedSelector>(std::move(c), tracer_);
  }

 private:
  std::unique_ptr<ms::TaskSelector> inner_;
  Tracer& tracer_;
  SelectStats* stats_;
};

// The simulator reads prices through the base class's non-virtual
// reward_rows()/rewards() and hands workers over through the non-virtual
// set_reprice_workers(), so the wrapper pushes its workers into the inner
// mechanism before each call and mirrors the inner reward table after it.
class TracedMechanism final : public mi::IncentiveMechanism {
 public:
  TracedMechanism(std::unique_ptr<mi::IncentiveMechanism> inner,
                  IncentiveStats& stats)
      : inner_(std::move(inner)), stats_(stats) {
    mirror();
  }

  const char* name() const override { return inner_->name(); }

  void update_rewards(const mcs::model::World& world, mcs::Round k) override {
    inner_->set_reprice_workers(reprice_pool_, reprice_workers_);
    const Clock::time_point t0 = Clock::now();
    inner_->update_rewards(world, k);
    stats_.update_s += seconds_since(t0);
    ++stats_.update_calls;
    mirror();
  }

  bool updates_within_round() const override {
    return inner_->updates_within_round();
  }

  void reprice(const mcs::model::World& world, mcs::Round k,
               const std::vector<std::size_t>& dirty_tasks) override {
    inner_->set_reprice_workers(reprice_pool_, reprice_workers_);
    const Clock::time_point t0 = Clock::now();
    inner_->reprice(world, k, dirty_tasks);
    stats_.reprice_s += seconds_since(t0);
    ++stats_.reprice_calls;
    mirror();
  }

  mcs::Json state_to_json() const override { return inner_->state_to_json(); }

  void restore_state(const mcs::Json& state) override {
    inner_->restore_state(state);
    mirror();
  }

 private:
  void mirror() {
    rewards_ = inner_->rewards();
    rewards_by_row_ = inner_->reward_rows() != nullptr;
  }

  std::unique_ptr<mi::IncentiveMechanism> inner_;
  IncentiveStats& stats_;
};

SelectStats* Tracer::new_select_block() {
  std::lock_guard<std::mutex> lock(mu_);
  return &select_blocks_.emplace_back();
}

std::unique_ptr<ms::TaskSelector> Tracer::wrap(
    std::unique_ptr<ms::TaskSelector> inner) {
  return std::make_unique<TracedSelector>(std::move(inner), *this);
}

std::unique_ptr<mi::IncentiveMechanism> Tracer::wrap(
    std::unique_ptr<mi::IncentiveMechanism> inner) {
  IncentiveStats* stats = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = &incentive_blocks_.emplace_back();
  }
  return std::make_unique<TracedMechanism>(std::move(inner), *stats);
}

SelectStats Tracer::select_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  SelectStats total;
  for (const SelectStats& s : select_blocks_) total += s;
  return total;
}

IncentiveStats Tracer::incentive_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  IncentiveStats total;
  for (const IncentiveStats& s : incentive_blocks_) total += s;
  return total;
}

}  // namespace perfbench
