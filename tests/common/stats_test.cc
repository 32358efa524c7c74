// Unit tests for common::SampleSet.

#include "src/common/stats.h"

#include <gtest/gtest.h>

namespace sfs::common {
namespace {

TEST(SampleSetTest, PercentileNearestRank) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1), 1.0);
}

TEST(SampleSetTest, UnorderedInsertionStillSorts) {
  SampleSet s;
  s.Add(3.0);
  s.Add(1.0);
  s.Add(2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(SampleSetTest, AddAfterQueryResorts) {
  SampleSet s;
  s.Add(2.0);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(SampleSetTest, EmptyReturnsZeros) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 0.0);
}

}  // namespace
}  // namespace sfs::common
