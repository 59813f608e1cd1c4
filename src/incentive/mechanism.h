// IncentiveMechanism: the platform-side pricing policy.
//
// At the start of every sensing round the simulator asks the mechanism to
// refresh the per-task rewards from the current world state; users then see
// those rewards when selecting tasks (Fig. 1 of the paper). Three policies
// are implemented: the paper's on-demand mechanism, a fixed mechanism and
// the steered-crowdsensing baseline of Kawajiri et al.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/types.h"
#include "model/world.h"

namespace mcs {
class ThreadPool;
}

namespace mcs::incentive {

class IncentiveMechanism {
 public:
  virtual ~IncentiveMechanism() = default;

  virtual const char* name() const = 0;

  /// Recompute rewards for round k from the world state (called once per
  /// round, before task selection). Implementations must size the reward
  /// vector to world.num_tasks().
  virtual void update_rewards(const model::World& world, Round k) = 0;

  /// Mechanisms that react to every arriving measurement (Kawajiri's
  /// steered crowdsensing recomputes its points each user session) return
  /// true; the simulator then refreshes rewards before each user instead of
  /// once per round. Round-granularity mechanisms keep the default.
  virtual bool updates_within_round() const { return false; }

  /// Intra-round repricing, for mechanisms that return true from
  /// updates_within_round(). The simulator calls this instead of
  /// update_rewards() before every session of a round that has already been
  /// published with update_rewards(world, k); round-granularity mechanisms
  /// (on-demand, adaptive, fixed, participation) are never repriced inside
  /// a round. Between two sessions only the previous session's tasks gained
  /// measurements (their positions arrive in `dirty_tasks`): every user
  /// moves in the round's pre-pass, before the first session.
  ///
  /// Contract: after reprice() returns, rewards() must be bit-identical to
  /// what a full update_rewards(world, k) against the same world would
  /// produce — incrementality is an implementation detail, never a
  /// semantic. The default keeps that trivially true by recomputing in
  /// full; steered overrides it with an O(dirty) path, the only
  /// incremental repricer (the reprice suite pins it against the full
  /// recompute).
  virtual void reprice(const model::World& world, Round k,
                       const std::vector<std::size_t>& dirty_tasks);

  /// Reward of task `task` at the current round (0 for tasks no longer
  /// asking for participants).
  Money reward(TaskId task) const;

  const std::vector<Money>& rewards() const { return rewards_; }

  /// Workers available to the next update_rewards()/reprice() call. The
  /// simulator points every mechanism at its reprice pool once per round;
  /// mechanisms with a sharded sweep (on-demand, adaptive) fan their
  /// per-task-row pricing out over it, the rest ignore it. pool = nullptr
  /// or workers <= 1 restores the serial path. The pool must outlive the
  /// pricing calls; the mechanism never owns it.
  void set_reprice_workers(ThreadPool* pool, int workers) {
    reprice_pool_ = pool;
    reprice_workers_ = workers;
  }

  /// The reward table as a dense per-task-row snapshot, or nullptr when
  /// rewards are not row-indexed. Mechanisms whose reward vector is indexed
  /// by task *position* (all built-in ones) opt in via rewards_by_row_;
  /// then (*reward_rows())[row] == reward(task id at row) for every row,
  /// and the simulator's bulk phases (open-task scan, commit reward tables)
  /// read the contiguous array instead of one virtual bounds-checked
  /// reward() call per task. Custom mechanisms keeping an id-keyed table
  /// (e.g. sparse task ids) leave the flag unset and keep the virtual path.
  /// The pointer/values are valid until the next update_rewards(),
  /// reprice() or restore_state() call.
  const std::vector<Money>* reward_rows() const {
    return rewards_by_row_ ? &rewards_ : nullptr;
  }

  /// Serialize every field that influences future pricing decisions, for
  /// campaign checkpoints. The contract is bit-exactness: after
  /// restore_state(state_to_json()) on a mechanism constructed with the
  /// same parameters, every subsequent update_rewards()/reprice() must
  /// produce the same doubles the uninterrupted mechanism would.
  /// Construction-time parameters (rules, scales, controller constants) are
  /// NOT serialized — the resume path rebuilds the mechanism from the
  /// experiment config first, then overlays this state. Derived classes
  /// call the base (which carries `rewards_`) and add their own keys.
  virtual Json state_to_json() const;

  /// Inverse of state_to_json(). Throws mcs::Error on missing keys, type
  /// mismatches or out-of-range values (corrupted checkpoint), leaving no
  /// partially restored state a caller is allowed to keep using.
  virtual void restore_state(const Json& state);

 protected:
  // JSON helpers shared by the state_to_json()/restore_state() overrides.
  // Doubles survive the trip bit-exactly (Json dumps %.17g); ints are
  // range-checked on the way back in.
  static Json money_array(const std::vector<Money>& values);
  static std::vector<Money> money_vector(const Json& array);
  static Json int_array(const std::vector<int>& values);
  static std::vector<int> int_vector(const Json& array);

  std::vector<Money> rewards_;
  // See reward_rows(): set true in the constructor of every mechanism whose
  // rewards_ is indexed by task position.
  bool rewards_by_row_ = false;
  // See set_reprice_workers(): the sharded-sweep mechanisms hand these to
  // parallel_ranges; (nullptr, 1) — the default — is the serial path.
  ThreadPool* reprice_pool_ = nullptr;
  int reprice_workers_ = 1;
};

enum class MechanismKind {
  kOnDemand,       // the paper's demand-based dynamic mechanism
  kFixed,          // fixed random per-task rewards (§VI baseline)
  kSteered,        // Kawajiri et al. quality-steered baseline (§VI)
  kParticipation,  // participation-target global price (à la Lee & Hoh [11])
};

MechanismKind parse_mechanism(const std::string& name);
const char* mechanism_name(MechanismKind kind);

/// Shared knobs for building a mechanism over a given world.
struct MechanismParams {
  Money platform_budget = 1000.0;  // B
  Money lambda = 0.5;              // per-level reward increment
  int demand_levels = 5;           // N
  // Steered baseline constants: reward = Rc + mu * dQ(x),
  // dQ(x) = delta * (1-delta)^x, spanning (Rc, Rc + mu*delta].
  //
  // §VI quotes (Rc=5, mu=100, delta=0.2, "reward varies in [5,25]"), but the
  // paper's own Fig. 9(b) shows steered paying under $2.5 per measurement —
  // i.e. the experiments ran steered at the same reward scale as the other
  // mechanisms. We default to the scale-normalized constants (rewards in
  // [0.5, 2.5], matching r0..r0+lambda(N-1)); pass the quoted values via
  // flags to reproduce the literal §VI text. See DESIGN.md §4.
  Money steered_rc = 0.5;
  double steered_mu = 10.0;
  double steered_delta = 0.2;
  // Participation-target baseline: desired active-user fraction per round
  // and the dead band around it.
  double participation_target = 0.5;
  double participation_band = 0.1;
};

/// Factory covering the three paper mechanisms. `rng` is consumed only by
/// the fixed mechanism (to draw its random per-task demand levels).
std::unique_ptr<IncentiveMechanism> make_mechanism(MechanismKind kind,
                                                   const model::World& world,
                                                   const MechanismParams& params,
                                                   Rng& rng);

}  // namespace mcs::incentive
