#include "select/plan_memo.h"

#include <cmath>

#include "common/error.h"
#include "common/hash.h"
#include "geo/distance.h"

namespace mcs::select {

void PlanMemoParams::validate() const {
  MCS_CHECK(cell_size > 0.0, "plan-memo cell size must be positive");
  MCS_CHECK(budget_bucket > 0.0, "plan-memo budget bucket must be positive");
  MCS_CHECK(max_entries_per_key >= 1,
            "plan-memo needs at least one entry per key");
}

PlanMemo::PlanMemo(PlanMemoParams params) : params_(params) {
  params_.validate();
}

void PlanMemo::begin_table() {
  entries_.clear();
  buckets_.clear();  // keeps the bucket array; no rehash next table
}

std::uint64_t PlanMemo::key_of(const SelectionInstance& inst,
                               std::uint64_t sig_hash) const {
  const auto cell_x =
      static_cast<std::int64_t>(std::floor(inst.start.x / params_.cell_size));
  const auto cell_y =
      static_cast<std::int64_t>(std::floor(inst.start.y / params_.cell_size));
  const auto budget_bucket = static_cast<std::int64_t>(
      std::floor(inst.time_budget / params_.budget_bucket));
  std::uint64_t h = hash_combine(sig_hash, static_cast<std::uint64_t>(cell_x));
  h = hash_combine(h, static_cast<std::uint64_t>(cell_y));
  return hash_combine(h, static_cast<std::uint64_t>(budget_bucket));
}

PlanMemo::Ticket PlanMemo::classify(const SelectionInstance& inst,
                                    int exact_candidate_limit) {
  // Canonical signature of the candidate list: its task-id vector. Within
  // one round an id determines its location, and the simulator lists
  // candidates in ascending task-row order, so equal vectors mean equal
  // geometry and enumeration order.
  const std::size_t m = inst.candidates.size();
  scratch_ids_.resize(m);
  std::uint64_t sig = mix64(static_cast<std::uint64_t>(m));
  for (std::size_t j = 0; j < m; ++j) {
    scratch_ids_[j] = inst.candidates[j].task;
    sig = hash_combine(sig, static_cast<std::uint64_t>(scratch_ids_[j]));
  }

  // Prices are frozen for the round by the caller (round-granularity
  // mechanisms), but the memo does not take that on faith: rewards and the
  // travel model are part of every verification, so a repriced or foreign
  // instance degrades to a miss instead of a wrong plan.
  const auto economics_match = [&](const Entry& e) {
    if (e.travel.speed_mps != inst.travel.speed_mps ||
        e.travel.cost_per_meter != inst.travel.cost_per_meter) {
      return false;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (e.rewards[j] != inst.candidates[j].reward) return false;
    }
    return true;
  };

  std::vector<std::uint32_t>& bucket = buckets_[key_of(inst, sig)];

  // Exact hit: the probing instance is bit-equal to a cached one, so the
  // cached plan is what this user's own (pure, deterministic) solve would
  // return. The hash only routed us here — every field is re-verified.
  for (const std::uint32_t idx : bucket) {
    const Entry& e = entries_[idx];
    if (e.ids != scratch_ids_) continue;
    if (!(e.start == inst.start) || e.time_budget != inst.time_budget) {
      continue;
    }
    if (!economics_match(e)) continue;
    ++stats_.exact_hits;
    return {Outcome::kExactHit, idx};
  }

  // Start legs: needed by the dominance probe and by this instance's own
  // entry should it become an owner.
  scratch_d0_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    scratch_d0_[j] = geo::euclidean(inst.start, inst.candidates[j].location);
  }

  // Dominance probe (the start-leg fix-up): only sound when both the cached
  // solve and this user's would-be solve are exact at this candidate count.
  // The remaining condition — the cached optimum is the empty tour — is
  // checked at resolve(). Only published entries are probed: a prober
  // pending on an unsolved owner creates no entry of its own, so each of
  // its bit-equal class-mates would turn pending too and, when the owner's
  // plan is not empty, pay a fallback solve each. As an owner it pays one
  // solve and they exact-hit it.
  if (exact_candidate_limit >= static_cast<int>(m)) {
    for (const std::uint32_t idx : bucket) {
      const Entry& e = entries_[idx];
      if (!e.solved || e.ids != scratch_ids_) continue;
      if (e.exact_limit < static_cast<int>(m)) continue;
      if (inst.time_budget > e.time_budget) continue;
      if (!economics_match(e)) continue;
      bool dominated = true;
      for (std::size_t j = 0; j < m; ++j) {
        if (scratch_d0_[j] < e.d0[j]) {
          dominated = false;
          break;
        }
      }
      if (dominated) return {Outcome::kPending, idx};
    }
  }

  // Class owner: pays the full solve; cache it unless the bucket is full.
  ++stats_.misses;
  Ticket t{Outcome::kOwner, kNoEntry};
  if (bucket.size() < static_cast<std::size_t>(params_.max_entries_per_key)) {
    t.entry = static_cast<std::uint32_t>(entries_.size());
    bucket.push_back(t.entry);
    Entry e;
    e.start = inst.start;
    e.time_budget = inst.time_budget;
    e.ids = scratch_ids_;
    e.d0 = scratch_d0_;
    e.travel = inst.travel;
    e.rewards.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      e.rewards[j] = inst.candidates[j].reward;
    }
    e.exact_limit = exact_candidate_limit;
    entries_.push_back(std::move(e));
  }
  return t;
}

void PlanMemo::publish(const Ticket& t, const Selection& plan, bool feasible) {
  if (t.entry == kNoEntry) return;
  MCS_CHECK(t.outcome == Outcome::kOwner, "publish() takes an owner ticket");
  Entry& e = entries_[t.entry];
  e.plan = plan;
  e.feasible = feasible;
  e.solved = true;
}

const Selection& PlanMemo::cached_plan(const Ticket& t) const {
  MCS_CHECK(t.outcome == Outcome::kExactHit && t.entry != kNoEntry,
            "cached_plan() takes an exact-hit ticket");
  const Entry& e = entries_[t.entry];
  MCS_CHECK(e.solved, "owner must publish before its hits are read");
  return e.plan;
}

bool PlanMemo::cached_feasible(const Ticket& t) const {
  MCS_CHECK(t.outcome == Outcome::kExactHit && t.entry != kNoEntry,
            "cached_feasible() takes an exact-hit ticket");
  const Entry& e = entries_[t.entry];
  MCS_CHECK(e.solved, "owner must publish before its hits are read");
  return e.feasible;
}

bool PlanMemo::resolve(const Ticket& t, const Selection** plan) {
  MCS_CHECK(t.outcome == Outcome::kPending && t.entry != kNoEntry,
            "resolve() takes a pending ticket");
  const Entry& e = entries_[t.entry];
  MCS_CHECK(e.solved, "owner must publish before pendings resolve");
  // The dominance argument proves the prober's optimum is the empty tour
  // only when the cached optimum is empty — including its economics, so a
  // nonstandard selector that decorated an empty order could never leak
  // values the prober's own solve would not produce.
  if (e.plan.order.empty() && e.plan.distance == 0.0 &&
      e.plan.reward == 0.0 && e.plan.cost == 0.0) {
    ++stats_.fixup_hits;
    *plan = &e.plan;
    return true;
  }
  ++stats_.fallbacks;
  ++stats_.misses;
  return false;
}

}  // namespace mcs::select
