// Deterministic fault injection for crowdsensing campaigns.
//
// The paper's evaluation assumes perfectly reliable participants: every
// selected user completes its tour and every measurement uploads. Real
// fleets are dominated by churn — workers go offline for a round, abandon
// tours halfway, uploads vanish on flaky links, readings arrive corrupted,
// and the platform itself occasionally glitches a task out of a round's
// published set. FaultPlan describes the rates; FaultInjector turns them
// into concrete draws.
//
// Every draw is a pure hash of (plan seed, campaign seed, fault kind,
// entity ids) expanded through SplitMix64 — not a shared sequential stream.
// Two consequences the rest of the system relies on:
//   * campaigns stay bit-reproducible at any experiment thread count, and
//   * a fault drawn for one entity never shifts another entity's draws, so
//     raising one rate perturbs only the events it governs.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace mcs::sim {

/// Fault rates for one campaign. All probabilities in [0, 1]; the default
/// plan (all rates zero) injects nothing and leaves every campaign
/// bit-identical to a fault-free run, whatever `seed` is.
struct FaultPlan {
  double dropout_prob = 0.0;      // P[worker offline for a whole round]
  double abandon_prob = 0.0;      // P[tour abandoned after a random prefix]
  double upload_loss_prob = 0.0;  // P[one delivered measurement is lost]
  double corruption_prob = 0.0;   // P[an accepted reading is corrupted]
  double withdraw_prob = 0.0;     // P[open task glitched out of one round]
  // Stream id mixed with the campaign seed: two plans with equal rates but
  // different seeds fault different (user, round) pairs.
  std::uint64_t seed = 0;

  /// True when any rate is positive (the injector has work to do).
  bool any() const;

  /// Throws mcs::Error unless every probability is in [0, 1].
  void validate() const;
};

/// Stateless fault oracle for one campaign. Every query is a pure function
/// of (plan, campaign_seed, arguments): callers may ask in any order, any
/// number of times, from any thread, and always get the same answer.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint64_t campaign_seed);

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.any(); }

  /// The campaign seed the injector was built with. Together with plan()
  /// this is the injector's *entire* state — every draw is a pure hash, so a
  /// checkpoint records (plan, campaign_seed) and reconstruction replays
  /// identically with no stream position to save.
  std::uint64_t campaign_seed() const { return seed_; }

  /// Worker `user` is offline for the whole of round `k` (no session, no
  /// selection, no travel).
  bool drop_user(UserId user, Round k) const;

  /// Platform glitch: `task` is withdrawn from round `k`'s published set
  /// (not selectable, not deliverable this round; back next round).
  bool withdraw_task(TaskId task, Round k) const;

  /// Legs of the planned tour the user actually walks: `planned` when the
  /// tour is not abandoned, otherwise uniform in [0, planned - 1] — the
  /// user gives up before some task and goes home.
  int legs_completed(UserId user, Round k, int planned) const;

  /// The measurement of `task` by `user` in round `k` is lost in upload:
  /// the leg was walked but the platform receives nothing.
  bool lose_upload(UserId user, TaskId task, Round k) const;

  /// The accepted measurement is corrupted. The platform cannot tell: it
  /// pays as usual, and the campaign only counts the corruption
  /// (`corrupted_measurements`, and the event trace's `corrupted` flag).
  bool corrupt_upload(UserId user, TaskId task, Round k) const;

 private:
  /// Uniform [0, 1) draw for one (kind, a, b) cell.
  double unit_draw(std::uint64_t kind, std::uint64_t a, std::uint64_t b) const;

  FaultPlan plan_;
  std::uint64_t seed_;
};

}  // namespace mcs::sim
