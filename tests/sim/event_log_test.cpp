#include "sim/event_log.h"

#include <gtest/gtest.h>

namespace mcs::sim {
namespace {

TEST(EventLog, DisabledLogRecordsNothing) {
  EventLog log(false);
  log.record({1, 0, 0, 1.0, 10.0});
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.enabled());
}

TEST(EventLog, EnabledLogKeepsOrder) {
  EventLog log(true);
  log.record({1, 10, 3, 1.5, 100.0});
  log.record({1, 11, 3, 1.5, 50.0});
  log.record({2, 10, 4, 2.0, 75.0});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[0].user, 10);
  EXPECT_EQ(log.events()[1].user, 11);
  EXPECT_EQ(log.events()[2].round, 2);
}

TEST(EventLog, EventsDefaultToAcceptedAndClean) {
  EventLog log(true);
  log.record({1, 5, 7, 1.25, 42.5});
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.events()[0].accepted);
  EXPECT_FALSE(log.events()[0].corrupted);
}

}  // namespace
}  // namespace mcs::sim
