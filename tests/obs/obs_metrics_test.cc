#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace sfs::obs {
namespace {

TEST(LogHistogramTest, LinearRegionBucketsAreExact) {
  for (std::int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(LogHistogram::BucketIndex(v), static_cast<std::size_t>(v)) << v;
    EXPECT_EQ(LogHistogram::BucketLowerBound(static_cast<std::size_t>(v)), v) << v;
  }
}

TEST(LogHistogramTest, NegativeValuesClampToBucketZero) {
  EXPECT_EQ(LogHistogram::BucketIndex(-1), 0u);
  EXPECT_EQ(LogHistogram::BucketIndex(std::numeric_limits<std::int64_t>::min()), 0u);
}

TEST(LogHistogramTest, BucketBoundariesAtPowersOfTwo) {
  // 16 opens the first logarithmic octave; each octave splits into 8.
  EXPECT_EQ(LogHistogram::BucketIndex(15), 15u);
  EXPECT_EQ(LogHistogram::BucketIndex(16), 16u);
  EXPECT_EQ(LogHistogram::BucketIndex(17), 16u);  // sub-bucket width 2 here
  EXPECT_EQ(LogHistogram::BucketIndex(18), 17u);
  EXPECT_EQ(LogHistogram::BucketIndex(31), 23u);
  EXPECT_EQ(LogHistogram::BucketIndex(32), 24u);
  EXPECT_EQ(LogHistogram::BucketLowerBound(16), 16);
  EXPECT_EQ(LogHistogram::BucketLowerBound(17), 18);
  EXPECT_EQ(LogHistogram::BucketLowerBound(24), 32);
}

TEST(LogHistogramTest, LowerBoundInvertsBucketIndexWithBoundedError) {
  // For every probed value: the bucket's lower bound is <= v, and the
  // quantization error is below 2^-kSubBits (12.5%).
  for (std::int64_t v : {1LL, 15LL, 16LL, 100LL, 1000LL, 4095LL, 4096LL, 123456789LL,
                         (1LL << 40) + 12345, (1LL << 62) - 1}) {
    const std::size_t index = LogHistogram::BucketIndex(v);
    const std::int64_t lo = LogHistogram::BucketLowerBound(index);
    ASSERT_LE(lo, v) << v;
    EXPECT_LT(static_cast<double>(v - lo),
              static_cast<double>(v) / 8.0 + 1.0)
        << v;
    // Monotonicity across the boundary: the next bucket starts above v.
    if (index + 1 < LogHistogram::kNumBuckets) {
      EXPECT_GT(LogHistogram::BucketLowerBound(index + 1), v) << v;
    }
  }
}

TEST(LogHistogramTest, SnapshotAggregatesCountSumMinMaxMean) {
  LogHistogram hist(1);
  for (const std::int64_t v : {5, 10, 15}) {
    hist.Record(0, v);
  }
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_EQ(snap.sum(), 30);
  EXPECT_DOUBLE_EQ(snap.mean(), 10.0);
  EXPECT_DOUBLE_EQ(snap.min(), 5.0);
  EXPECT_DOUBLE_EQ(snap.max(), 15.0);
}

TEST(LogHistogramTest, EmptySnapshotIsAllZeros) {
  LogHistogram hist(2);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.min(), 0.0);
  EXPECT_DOUBLE_EQ(snap.max(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(50), 0.0);
}

TEST(LogHistogramTest, PercentilesAreExactInTheLinearRegion) {
  LogHistogram hist(1);
  for (std::int64_t v = 1; v <= 10; ++v) {
    hist.Record(0, v);
  }
  const HistogramSnapshot snap = hist.Snapshot();
  // Nearest-rank: p50 of 1..10 selects the 5th sample.
  EXPECT_DOUBLE_EQ(snap.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(10), 1.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0), 1.0);
}

TEST(LogHistogramTest, MergesAcrossShards) {
  LogHistogram hist(4);
  for (int shard = 0; shard < 4; ++shard) {
    for (int i = 0; i < 10; ++i) {
      hist.Record(shard, shard + 1);
    }
  }
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count(), 40u);
  EXPECT_DOUBLE_EQ(snap.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.max(), 4.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 2.5);
}

TEST(LogHistogramTest, ConcurrentShardedRecordingIsTornFree) {
  // One writer thread per shard, concurrent snapshots from the main thread —
  // the executor's exact usage.  Run under TSan this is the data-race proof
  // for the lock-free recording path.
  constexpr int kShards = 4;
  constexpr int kPerShard = 20000;
  LogHistogram hist(kShards);
  std::vector<std::thread> writers;
  writers.reserve(kShards);
  for (int shard = 0; shard < kShards; ++shard) {
    writers.emplace_back([&hist, shard] {
      for (int i = 0; i < kPerShard; ++i) {
        hist.Record(shard, i % 1000);
      }
    });
  }
  // Concurrent reads must be torn-free (any count in [0, total] is fine).
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot snap = hist.Snapshot();
    EXPECT_LE(snap.count(), static_cast<std::uint64_t>(kShards) * kPerShard);
  }
  for (auto& w : writers) {
    w.join();
  }
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kShards) * kPerShard);
  EXPECT_DOUBLE_EQ(snap.min(), 0.0);
  EXPECT_DOUBLE_EQ(snap.max(), 999.0);
}

TEST(MetricsRegistryTest, RegisterOnFirstUseReturnsStableReferences) {
  MetricsRegistry registry(2);
  LogHistogram& h1 = registry.GetHistogram("latency");
  LogHistogram& h2 = registry.GetHistogram("latency");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.num_shards(), 2);
  EXPECT_NE(&registry.GetHistogram("other"), &h1);
  h1.Record(0, 3);
  EXPECT_EQ(h2.Snapshot().count(), 1u);
}

}  // namespace
}  // namespace sfs::obs
