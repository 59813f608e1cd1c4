// The demand indicator of §IV — the heart of the on-demand mechanism.
//
// The demand of task t_i at round k combines three factors (Eq. 2):
//   d_i^k = w1*X_i1 + w2*X_i2 + w3*X_i3
// with the factor definitions of Eqs. 3–5:
//   X_i1 = lambda1 * ln(1 + 1/(tau_i - (k-1)))        (deadline pressure)
//   X_i2 = lambda2 * ln(1 + (1 - pi_i/phi_i))         (missing progress)
//   X_i3 = lambda3 * ln(1 + (1 - N_i/Nmax))           (scarce neighbors)
// The weights come from an AHP pairwise comparison of the three criteria.
#pragma once

#include <vector>

#include "ahp/comparison_matrix.h"
#include "ahp/weights.h"
#include "common/types.h"
#include "model/world.h"

namespace mcs::incentive {

/// Scale coefficients lambda1..lambda3 of Eqs. 3–5.
struct DemandParams {
  double lambda1 = 1.0;
  double lambda2 = 1.0;
  double lambda3 = 1.0;

  double lambda_max() const;
};

/// X_i1 of Eq. 3. `deadline` is tau_i (in rounds), `k` the current round
/// (1-based). Returns 0 for an already-expired task (k > tau_i): an expired
/// task exerts no demand. Monotically increasing in k, bounded by
/// lambda1*ln 2 (attained at the final round k = tau_i).
double deadline_factor(Round deadline, Round k, double lambda1);

/// X_i2 of Eq. 4 from received (pi_i) and required (phi_i) measurements.
/// Decreasing in progress; lambda2*ln 2 at zero progress, 0 when complete.
double progress_factor(int received, int required, double lambda2);

/// X_i3 of Eq. 5 from the task's neighboring-user count N_i and the maximum
/// count over all tasks Nmax. Decreasing in N_i; 0 when N_i == Nmax,
/// lambda3*ln 2 when N_i == 0. When Nmax == 0 every task is equally starved
/// and the factor takes its maximum value for all of them.
double neighbor_factor(int neighbors, int max_neighbors, double lambda3);

/// Nmax of Eq. 5: the largest per-task neighbor count, 0 when there are no
/// tasks. One serial pass — task sets stay in the tens of thousands, where
/// fanning a max out over a pool costs more than it saves.
int max_neighbors(const std::vector<int>& neighbor_counts);

/// Evaluates demands for whole task sets against a World snapshot.
class DemandIndicator {
 public:
  /// `criteria_matrix` compares (deadline, progress, neighbors) pairwise;
  /// weights are extracted with `method` (the paper uses row averages,
  /// Eq. 6).
  DemandIndicator(DemandParams params, const ahp::ComparisonMatrix& criteria_matrix,
                  ahp::WeightMethod method = ahp::WeightMethod::kRowAverage);

  /// Explicit weights (deadline, progress, neighbors), bypassing AHP.
  /// Weights must be non-negative and sum to 1 (within tolerance); used by
  /// ablation studies (e.g. deadline-only = {1,0,0}).
  DemandIndicator(DemandParams params, std::vector<double> weights);

  /// Paper default: the Table I matrix {a12=3, a13=5, a23=2} giving
  /// W = (0.648, 0.230, 0.122).
  static DemandIndicator with_paper_defaults(DemandParams params = {});

  const std::vector<double>& weights() const { return weights_; }
  const DemandParams& params() const { return params_; }

  /// Raw demand d_i^k of one task (Eq. 2).
  double demand(const model::Task& task, Round k, int neighbors,
                int max_neighbors) const;

  /// Eq. 2 straight from store columns — the shared per-row core of
  /// demand() and the demands() sweeps below, so all of them are the same
  /// expression by construction. Public so mechanisms fusing demand, level
  /// and reward into one column sweep (on_demand/adaptive update_rewards)
  /// price with the exact operation the pinned oracles use.
  double demand_from_fields(Round deadline, int required, int received,
                            Round k, int neighbors, int max_neighbors) const;

  /// Raw demands for all tasks of a world at round k. Completed or expired
  /// tasks get demand 0 (they no longer ask for participants).
  ///
  /// Demands are a pure function of the *current* world snapshot — nothing
  /// is cached between rounds. That statelessness is what makes the
  /// mechanism degrade gracefully under faults: a measurement lost in
  /// upload never advances pi_i, so the next recompute re-inflates the
  /// task's demand (and hence its published reward) until someone actually
  /// delivers.
  std::vector<double> demands(const model::World& world, Round k) const;

  /// Same, with the per-task neighbor counts already in hand (one entry per
  /// task position, as returned by World::neighbor_counts()); Nmax is their
  /// max_neighbors(). Lets callers that evaluate several rounds or
  /// mechanisms against one user placement skip the spatial-grid recount.
  std::vector<double> demands(const model::World& world, Round k,
                              const std::vector<int>& neighbor_counts) const;

  /// Normalized demand in [0,1]: d / (lambda_max * ln 2)  (§IV-C).
  double normalize(double demand) const;

  /// normalize(demand) for every task, in one serial sweep over the world's
  /// neighbor counts. Together with demands() this is the plain per-row
  /// oracle the mechanisms' fused sweeps are pinned against.
  std::vector<double> normalized_demands(const model::World& world,
                                         Round k) const;

 private:
  DemandParams params_;
  std::vector<double> weights_;
};

}  // namespace mcs::incentive
