// Unit tests for the kernel-style fixed-point arithmetic (Section 3.2).

#include "src/common/fixed_point.h"

#include <gtest/gtest.h>

namespace sfs::common {
namespace {

TEST(Pow10Test, Values) {
  EXPECT_EQ(Pow10(0), 1);
  EXPECT_EQ(Pow10(1), 10);
  EXPECT_EQ(Pow10(4), 10000);
  EXPECT_EQ(Pow10(9), 1000000000);
}

TEST(ScaledDivTest, ExactDivision) {
  EXPECT_EQ(ScaledDiv(10, 100, 5), 200);
  EXPECT_EQ(ScaledDiv(1, 10000, 1), 10000);
}

TEST(ScaledDivTest, RoundsToNearest) {
  // 1 * 10 / 3 = 3.33 -> 3;  2 * 10 / 3 = 6.67 -> 7.
  EXPECT_EQ(ScaledDiv(1, 10, 3), 3);
  EXPECT_EQ(ScaledDiv(2, 10, 3), 7);
}

TEST(ScaledDivTest, NegativeNumerator) {
  EXPECT_EQ(ScaledDiv(-1, 10, 3), -3);
  EXPECT_EQ(ScaledDiv(-2, 10, 3), -7);
}

TEST(ScaledDivTest, LargeIntermediateUses128Bits) {
  // num * scale would overflow int64 without the widening.
  const std::int64_t num = 4'000'000'000'000LL;
  const std::int64_t scale = 1'000'000;
  EXPECT_EQ(ScaledDiv(num, scale, 2), num * (scale / 2));
}

}  // namespace
}  // namespace sfs::common
