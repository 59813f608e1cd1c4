#include "geo/path.h"

#include <gtest/gtest.h>

namespace mcs::geo {
namespace {

TEST(TravelModel, PaperDefaults) {
  const TravelModel t;
  EXPECT_DOUBLE_EQ(t.speed_mps, 2.0);
  EXPECT_DOUBLE_EQ(t.cost_per_meter, 0.002);
  EXPECT_DOUBLE_EQ(t.time_for(1000.0), 500.0);
  EXPECT_DOUBLE_EQ(t.cost_for(1000.0), 2.0);
  EXPECT_DOUBLE_EQ(t.distance_within(600.0), 1200.0);
}

TEST(TravelModel, TimeAndDistanceAreInverses) {
  const TravelModel t{1.5, 0.01};
  EXPECT_DOUBLE_EQ(t.distance_within(t.time_for(123.0)), 123.0);
}

}  // namespace
}  // namespace mcs::geo
