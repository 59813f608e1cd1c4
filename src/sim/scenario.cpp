#include "sim/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mcs::sim {

void ScenarioParams::validate() const {
  MCS_CHECK(area_side > 0.0, "area side must be positive");
  MCS_CHECK(num_tasks >= 1, "need at least one task");
  MCS_CHECK(num_users >= 1, "need at least one user");
  MCS_CHECK(required_measurements >= 1, "phi must be at least 1");
  MCS_CHECK(required_spread >= 0, "phi spread must be non-negative");
  MCS_CHECK(deadline_min >= 1 && deadline_max >= deadline_min,
            "bad deadline range");
  MCS_CHECK(speed_mps > 0.0, "speed must be positive");
  MCS_CHECK(cost_per_meter >= 0.0, "cost per meter must be non-negative");
  MCS_CHECK(user_budget_min_s >= 0.0 && user_budget_max_s >= user_budget_min_s,
            "bad user budget range");
  MCS_CHECK(user_budget_quantum_s >= 0.0,
            "budget quantum must be non-negative");
  MCS_CHECK(home_sites >= 0, "home sites must be non-negative");
  MCS_CHECK(neighbor_radius >= 0.0, "neighbor radius must be non-negative");
}

namespace {

model::World make_empty_world(const ScenarioParams& p) {
  geo::TravelModel travel;
  travel.speed_mps = p.speed_mps;
  travel.cost_per_meter = p.cost_per_meter;
  model::World world(geo::BoundingBox::square(p.area_side), travel,
                     p.neighbor_radius);
  world.reserve(static_cast<std::size_t>(p.num_tasks),
                static_cast<std::size_t>(p.num_users));
  return world;
}

void add_users(model::World& world, const ScenarioParams& p, Rng& rng) {
  // home_sites > 0: users pick their home from a shared site set, so many
  // of them start every round at bit-equal coordinates (see scenario.h).
  // The sites are drawn up front; with home_sites == 0 no extra draw
  // happens and the historical rng stream is untouched.
  std::vector<geo::Point> sites;
  sites.reserve(static_cast<std::size_t>(std::max(0, p.home_sites)));
  for (int s = 0; s < p.home_sites; ++s) {
    sites.push_back(
        {rng.uniform(0.0, p.area_side), rng.uniform(0.0, p.area_side)});
  }
  for (int i = 0; i < p.num_users; ++i) {
    geo::Point home;
    if (sites.empty()) {
      home = {rng.uniform(0.0, p.area_side), rng.uniform(0.0, p.area_side)};
    } else {
      home = sites[static_cast<std::size_t>(
          rng.uniform_int(0, p.home_sites - 1))];
    }
    Seconds budget = rng.uniform(p.user_budget_min_s, p.user_budget_max_s);
    if (p.user_budget_quantum_s > 0.0) {
      budget = p.user_budget_min_s +
               std::floor((budget - p.user_budget_min_s) /
                          p.user_budget_quantum_s) *
                   p.user_budget_quantum_s;
    }
    world.add_user(home, budget);
  }
}

Round draw_deadline(const ScenarioParams& p, Rng& rng) {
  return static_cast<Round>(rng.uniform_int(p.deadline_min, p.deadline_max));
}

int draw_required(const ScenarioParams& p, Rng& rng) {
  if (p.required_spread == 0) return p.required_measurements;
  const long long lo =
      std::max(1LL, static_cast<long long>(p.required_measurements) -
                        p.required_spread);
  const long long hi = p.required_measurements + p.required_spread;
  return static_cast<int>(rng.uniform_int(lo, hi));
}

}  // namespace

model::World generate_world(const ScenarioParams& params, Rng& rng) {
  params.validate();
  model::World world = make_empty_world(params);
  for (int i = 0; i < params.num_tasks; ++i) {
    const geo::Point loc{rng.uniform(0.0, params.area_side),
                         rng.uniform(0.0, params.area_side)};
    world.add_task(loc, draw_deadline(params, rng), draw_required(params, rng));
  }
  add_users(world, params, rng);
  return world;
}

model::World generate_clustered_world(const ScenarioParams& params,
                                      int clusters, Meters sigma, Rng& rng) {
  params.validate();
  MCS_CHECK(clusters >= 1, "need at least one cluster");
  MCS_CHECK(sigma >= 0.0, "cluster sigma must be non-negative");
  model::World world = make_empty_world(params);

  std::vector<geo::Point> centers;
  centers.reserve(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c) {
    centers.push_back({rng.uniform(0.0, params.area_side),
                       rng.uniform(0.0, params.area_side)});
  }
  for (int i = 0; i < params.num_tasks; ++i) {
    const geo::Point& center =
        centers[static_cast<std::size_t>(rng.uniform_int(0, clusters - 1))];
    const geo::Point raw{center.x + rng.normal(0.0, sigma),
                         center.y + rng.normal(0.0, sigma)};
    world.add_task(world.area().clamp(raw), draw_deadline(params, rng),
                   draw_required(params, rng));
  }
  add_users(world, params, rng);
  return world;
}

}  // namespace mcs::sim
