// Mobility models: where a user starts each sensing round.
//
// The paper's evaluation keeps a static population (each user works from a
// fixed home location, which is what makes fixed-reward mechanisms run dry
// after a few rounds). Real deployments have churn, so the simulator
// accepts pluggable mobility: users may teleport to fresh waypoints, drift
// around their home, or commute between two anchors. The extension bench
// (bench_ext_mobility) studies how each mechanism copes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/types.h"
#include "geo/bbox.h"
#include "model/user.h"

namespace mcs::sim {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  virtual const char* name() const = 0;

  /// Where `user` begins round `k`. Called once per (user, round), for
  /// every user before the round's first session; `rng` is the user's own
  /// substream for the round (mobility_stream_seed), so models may draw
  /// freely. Calls for different users may run concurrently: models must
  /// not mutate shared state. Implementations must return a point inside
  /// `area`.
  virtual geo::Point start_of_round(const model::User& user, Round k,
                                    const geo::BoundingBox& area, Rng& rng) = 0;
};

/// The paper's model: every round starts from the fixed home location.
class StaticHomeMobility final : public MobilityModel {
 public:
  const char* name() const override { return "static-home"; }
  geo::Point start_of_round(const model::User& user, Round,
                            const geo::BoundingBox&, Rng&) override {
    return user.home();
  }
};

/// Full churn: a fresh uniform waypoint every round (e.g. a commuter
/// population sampled anew each day).
class RandomWaypointMobility final : public MobilityModel {
 public:
  const char* name() const override { return "random-waypoint"; }
  geo::Point start_of_round(const model::User&, Round,
                            const geo::BoundingBox& area, Rng& rng) override;
};

/// Local wander: Gaussian displacement of the home location, clamped to the
/// area. sigma controls how far daily life strays from home.
class GaussianDriftMobility final : public MobilityModel {
 public:
  explicit GaussianDriftMobility(Meters sigma);
  const char* name() const override { return "gaussian-drift"; }
  geo::Point start_of_round(const model::User& user, Round,
                            const geo::BoundingBox& area, Rng& rng) override;

  Meters sigma() const { return sigma_; }

 private:
  Meters sigma_;
};

/// Commuter pattern: odd rounds start from home, even rounds from a fixed
/// per-user workplace (home mirrored through the area center), modelling a
/// population that alternates between two anchors.
class CommuteMobility final : public MobilityModel {
 public:
  const char* name() const override { return "commute"; }
  geo::Point start_of_round(const model::User& user, Round k,
                            const geo::BoundingBox& area, Rng& rng) override;
};

/// Seed of the mobility substream of the user at position `pos` in round
/// `k`: a pure function of (order_seed, k, pos), so every user walks the
/// same trajectory whatever the visit order, the other users' draws or the
/// worker count. The simulator and the test oracle both seed from here.
inline std::uint64_t mobility_stream_seed(std::uint64_t order_seed, Round k,
                                          std::uint32_t pos) {
  return hash_combine(hash_combine(mix64(order_seed ^ 0x5ba9d0c4f1e2a687ULL),
                                   static_cast<std::uint64_t>(k)),
                      pos);
}

/// The order in which users take their sessions in round `k`: the
/// positions 0..n_users-1, Fisher–Yates shuffled by a generator derived
/// from (order_seed, k). The simulator and the test oracle both call this.
std::vector<std::uint32_t> visit_order(std::uint64_t order_seed, Round k,
                                       std::size_t n_users);

enum class MobilityKind { kStaticHome, kRandomWaypoint, kGaussianDrift, kCommute };

MobilityKind parse_mobility(const std::string& name);
const char* mobility_name(MobilityKind kind);

/// Factory. `drift_sigma` only applies to the Gaussian-drift model.
std::unique_ptr<MobilityModel> make_mobility(MobilityKind kind,
                                             Meters drift_sigma = 300.0);

}  // namespace mcs::sim
