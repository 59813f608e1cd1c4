#include "common/error.h"

#include <gtest/gtest.h>

#include <string>

namespace mcs {
namespace {

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    MCS_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("error_test.cpp"), std::string::npos);
  }
}

TEST(Error, CheckMacroPassesSilently) {
  MCS_CHECK(true, "never");
  SUCCEED();
}

}  // namespace
}  // namespace mcs
