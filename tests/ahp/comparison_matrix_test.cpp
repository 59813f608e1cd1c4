#include "ahp/comparison_matrix.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mcs::ahp {
namespace {

TEST(ComparisonMatrix, IdentityByDefault) {
  const ComparisonMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m.at(i, j), 1.0);
  }
}

TEST(ComparisonMatrix, SetMaintainsReciprocity) {
  ComparisonMatrix m(3);
  m.set(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.25);
  m.set(2, 0, 2.0);  // setting the lower triangle updates the upper
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.5);
}

TEST(ComparisonMatrix, FromUpperTrianglePaperTableI) {
  const auto m = ComparisonMatrix::from_upper_triangle(3, {3.0, 5.0, 2.0});
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 0.2);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 0.5);
}

TEST(ComparisonMatrix, FromUpperTriangleSizeValidation) {
  EXPECT_THROW(ComparisonMatrix::from_upper_triangle(3, {1.0}), Error);
  EXPECT_THROW(ComparisonMatrix::from_upper_triangle(3, {1, 2, 3, 4}), Error);
}

TEST(ComparisonMatrix, NormalizedColumnsMatchPaperTableII) {
  const auto m = ComparisonMatrix::from_upper_triangle(3, {3.0, 5.0, 2.0});
  const auto n = m.normalized();
  // Table II of the paper (3 decimals).
  EXPECT_NEAR(n[0][0], 0.652, 0.001);
  EXPECT_NEAR(n[0][1], 0.667, 0.001);
  EXPECT_NEAR(n[0][2], 0.625, 0.001);
  EXPECT_NEAR(n[1][0], 0.217, 0.001);
  EXPECT_NEAR(n[1][1], 0.222, 0.001);
  EXPECT_NEAR(n[1][2], 0.250, 0.001);
  EXPECT_NEAR(n[2][0], 0.130, 0.001);  // paper prints 0.131 (rounding)
  EXPECT_NEAR(n[2][1], 0.111, 0.001);
  EXPECT_NEAR(n[2][2], 0.125, 0.001);
  // Every column of the normalized matrix sums to 1.
  for (std::size_t j = 0; j < 3; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < 3; ++i) s += n[i][j];
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(ComparisonMatrix, MultiplyBasics) {
  const auto m = ComparisonMatrix::from_upper_triangle(2, {4.0});
  const auto v = m.multiply({1.0, 2.0});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 9.0);    // 1*1 + 4*2
  EXPECT_DOUBLE_EQ(v[1], 2.25);   // 0.25*1 + 1*2
  EXPECT_THROW(m.multiply({1.0}), Error);
}

TEST(ComparisonMatrix, ConsistentMatrixFromWeightsEntries) {
  const auto m = consistent_matrix_from_weights({4.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 2.0);
  EXPECT_THROW(consistent_matrix_from_weights({1.0, 0.0}), Error);
}

TEST(ComparisonMatrix, InvalidOperations) {
  ComparisonMatrix m(3);
  EXPECT_THROW(m.set(0, 1, 0.0), Error);
  EXPECT_THROW(m.set(0, 1, -2.0), Error);
  EXPECT_THROW(m.set(0, 0, 2.0), Error);   // diagonal must stay 1
  EXPECT_THROW(m.set(0, 5, 2.0), Error);   // out of range
  EXPECT_THROW(m.at(3, 0), Error);
  EXPECT_THROW(ComparisonMatrix(0), Error);
}

TEST(ComparisonMatrix, ToStringContainsEntries) {
  const auto m = ComparisonMatrix::from_upper_triangle(2, {3.0});
  const std::string s = m.to_string(2);
  EXPECT_NE(s.find("3.00"), std::string::npos);
  EXPECT_NE(s.find("0.33"), std::string::npos);
}

}  // namespace
}  // namespace mcs::ahp
