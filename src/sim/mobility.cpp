#include "sim/mobility.h"

#include <numeric>

#include "common/error.h"
#include "common/strings.h"

namespace mcs::sim {

geo::Point RandomWaypointMobility::start_of_round(const model::User&, Round,
                                                  const geo::BoundingBox& area,
                                                  Rng& rng) {
  return {rng.uniform(area.lo.x, area.hi.x), rng.uniform(area.lo.y, area.hi.y)};
}

GaussianDriftMobility::GaussianDriftMobility(Meters sigma) : sigma_(sigma) {
  MCS_CHECK(sigma >= 0.0, "drift sigma must be non-negative");
}

geo::Point GaussianDriftMobility::start_of_round(const model::User& user, Round,
                                                 const geo::BoundingBox& area,
                                                 Rng& rng) {
  const geo::Point home = user.home();
  return area.clamp(
      {home.x + rng.normal(0.0, sigma_), home.y + rng.normal(0.0, sigma_)});
}

geo::Point CommuteMobility::start_of_round(const model::User& user, Round k,
                                           const geo::BoundingBox& area, Rng&) {
  if (k % 2 == 1) return user.home();
  const geo::Point center{(area.lo.x + area.hi.x) / 2.0,
                          (area.lo.y + area.hi.y) / 2.0};
  const geo::Point home = user.home();
  // Workplace = home mirrored through the area center (a stable, distinct
  // second anchor without extra per-user state).
  return area.clamp({2.0 * center.x - home.x, 2.0 * center.y - home.y});
}

std::vector<std::uint32_t> visit_order(std::uint64_t order_seed, Round k,
                                       std::size_t n_users) {
  std::vector<std::uint32_t> order(n_users);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  Rng rng(order_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k));
  rng.shuffle(order);
  return order;
}

MobilityKind parse_mobility(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "static" || lower == "static-home" || lower == "home") {
    return MobilityKind::kStaticHome;
  }
  if (lower == "waypoint" || lower == "random-waypoint") {
    return MobilityKind::kRandomWaypoint;
  }
  if (lower == "drift" || lower == "gaussian-drift") {
    return MobilityKind::kGaussianDrift;
  }
  if (lower == "commute") return MobilityKind::kCommute;
  throw Error("unknown mobility model: " + name);
}

const char* mobility_name(MobilityKind kind) {
  switch (kind) {
    case MobilityKind::kStaticHome: return "static-home";
    case MobilityKind::kRandomWaypoint: return "random-waypoint";
    case MobilityKind::kGaussianDrift: return "gaussian-drift";
    case MobilityKind::kCommute: return "commute";
  }
  return "?";
}

std::unique_ptr<MobilityModel> make_mobility(MobilityKind kind,
                                             Meters drift_sigma) {
  switch (kind) {
    case MobilityKind::kStaticHome:
      return std::make_unique<StaticHomeMobility>();
    case MobilityKind::kRandomWaypoint:
      return std::make_unique<RandomWaypointMobility>();
    case MobilityKind::kGaussianDrift:
      return std::make_unique<GaussianDriftMobility>(drift_sigma);
    case MobilityKind::kCommute:
      return std::make_unique<CommuteMobility>();
  }
  throw Error("unknown mobility kind");
}

}  // namespace mcs::sim
