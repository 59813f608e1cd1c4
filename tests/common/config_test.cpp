#include "common/config.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mcs {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValueFlags) {
  const Config c = parse({"--users=120", "--mechanism=fixed"});
  EXPECT_EQ(c.get_int("users", 0), 120);
  EXPECT_EQ(c.get_string("mechanism", ""), "fixed");
}

TEST(Config, BareFlagIsTrue) {
  const Config c = parse({"--verbose"});
  EXPECT_TRUE(c.get_bool("verbose", false));
}

TEST(Config, NonFlagArgumentsIgnored) {
  const Config c = parse({"input.txt", "--k=1", "other"});
  EXPECT_FALSE(c.has("input.txt"));
  EXPECT_FALSE(c.has("other"));
  EXPECT_EQ(c.get_int("k", 0), 1);
  EXPECT_TRUE(c.unconsumed_keys().empty());
}

TEST(Config, DefaultsWhenMissing) {
  const Config c = parse({});
  EXPECT_EQ(c.get_int("users", 100), 100);
  EXPECT_DOUBLE_EQ(c.get_double("lambda", 0.5), 0.5);
  EXPECT_EQ(c.get_string("name", "x"), "x");
  EXPECT_FALSE(c.get_bool("flag", false));
}

TEST(Config, UnconsumedTracking) {
  const Config c = parse({"--used=1", "--typo=2"});
  (void)c.get_int("used", 0);
  const auto unused = c.unconsumed_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Config, LastFlagWins) {
  const Config c = parse({"--k=1", "--k=2"});
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, MalformedNumberThrows) {
  const Config c = parse({"--n=12x"});
  EXPECT_THROW(c.get_int("n", 0), Error);
}

}  // namespace
}  // namespace mcs
