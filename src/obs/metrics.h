// obs::MetricsRegistry — named log2-bucket latency histograms with lock-free
// per-CPU accumulation and merge-on-read.
//
// Recording model: every histogram is sharded `num_shards` ways (one shard
// per CPU / dispatcher thread).  A writer touches only its own shard's cache
// line with relaxed atomics, so concurrent dispatcher threads never contend;
// readers merge all shards on demand (Snapshot), which is safe to run
// concurrently with writers — a snapshot is a slightly stale but torn-free
// view.
//
// Histograms are HDR-style: values bucket by power-of-two octave subdivided
// into 2^kSubBits sub-buckets, giving a worst-case relative quantization
// error of 2^-kSubBits (12.5%) across the full int64 range — tight enough
// for p50/p99/p999 latency columns at constant memory.  Values <= 0 land in
// bucket 0; values below 2^(kSubBits+1) are recorded exactly.
//
// Registration (GetHistogram) takes a mutex and may allocate; do it at setup
// time and cache the reference.  Recording never allocates.

#ifndef SFS_OBS_METRICS_H_
#define SFS_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/assert.h"
#include "src/common/mutex.h"

// Same outlining contract as trace_ring.h: recording entry points live in the
// cold text section so metrics-disabled hot loops pay only a null test.
#ifndef SFS_OBS_OUTLINED
#if defined(__GNUC__) || defined(__clang__)
#define SFS_OBS_OUTLINED __attribute__((noinline, cold))
#else
#define SFS_OBS_OUTLINED
#endif
#endif

namespace sfs::obs {

// Merged, immutable view of one histogram at a point in time.  API mirrors
// common::SampleSet (count/mean/min/max/Percentile) so call sites migrating
// off raw sample vectors keep their shape; Percentile returns the lower bound
// of the bucket holding the nearest-rank sample (exact for values < 16).
class HistogramSnapshot {
 public:
  HistogramSnapshot() = default;
  HistogramSnapshot(std::vector<std::uint64_t> buckets, std::uint64_t count,
                    std::int64_t sum, std::int64_t min, std::int64_t max)
      : buckets_(std::move(buckets)), count_(count), sum_(sum), min_(min), max_(max) {}

  std::uint64_t count() const { return count_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0.0 : static_cast<double>(min_); }
  double max() const { return count_ == 0 ? 0.0 : static_cast<double>(max_); }
  std::int64_t sum() const { return sum_; }

  // Nearest-rank percentile over bucketed values; p in [0, 100].  Returns the
  // lower bound of the selected bucket (so p100 <= max()).
  double Percentile(double p) const;

  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

class LogHistogram {
 public:
  // Sub-bucket resolution: each power-of-two octave splits into 2^kSubBits
  // buckets.
  static constexpr int kSubBits = 3;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  // Linear region [0, 2^(kSubBits+1)) + 8 sub-buckets per octave up to 2^63.
  static constexpr std::size_t kNumBuckets =
      2 * kSubBuckets + (62 - kSubBits) * kSubBuckets;

  explicit LogHistogram(int num_shards);

  // Records `value` into shard `shard` (the caller's CPU).  Lock-free,
  // allocation-free; relaxed atomics on the shard's own cache lines.
  SFS_OBS_OUTLINED void Record(int shard, std::int64_t value) {
    SFS_DCHECK(shard >= 0 && shard < num_shards_);
    if (value < 0) {
      value = 0;
    }
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    std::int64_t seen = s.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !s.max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
    seen = s.min.load(std::memory_order_relaxed);
    while (value < seen &&
           !s.min.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  // Merges all shards into an immutable snapshot.  Safe concurrently with
  // writers (view may trail in-flight records).
  HistogramSnapshot Snapshot() const;

  int num_shards() const { return num_shards_; }

  // Bucket geometry (used by tests and the snapshot's percentile math).
  static std::size_t BucketIndex(std::int64_t value) {
    const std::uint64_t u = value <= 0 ? 0 : static_cast<std::uint64_t>(value);
    if (u < 2 * kSubBuckets) {
      return static_cast<std::size_t>(u);  // exact linear region
    }
    const int msb = 63 - std::countl_zero(u);
    const int shift = msb - kSubBits;
    const std::size_t sub = static_cast<std::size_t>((u >> shift) & (kSubBuckets - 1));
    return 2 * kSubBuckets +
           static_cast<std::size_t>(msb - kSubBits - 1) * kSubBuckets + sub;
  }

  // Smallest value mapping to bucket `index`.
  static std::int64_t BucketLowerBound(std::size_t index) {
    SFS_DCHECK(index < kNumBuckets);
    if (index < 2 * kSubBuckets) {
      return static_cast<std::int64_t>(index);
    }
    const std::size_t rel = index - 2 * kSubBuckets;
    const int octave = kSubBits + 1 + static_cast<int>(rel / kSubBuckets);
    const std::size_t sub = rel % kSubBuckets;
    return (std::int64_t{1} << octave) +
           (static_cast<std::int64_t>(sub) << (octave - kSubBits));
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> sum{0};
    std::atomic<std::int64_t> max{std::numeric_limits<std::int64_t>::min()};
    std::atomic<std::int64_t> min{std::numeric_limits<std::int64_t>::max()};
    std::vector<std::atomic<std::uint64_t>> buckets =
        std::vector<std::atomic<std::uint64_t>>(kNumBuckets);
  };

  int num_shards_;
  std::vector<Shard> shards_;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(int num_shards) : num_shards_(num_shards) {
    SFS_CHECK(num_shards >= 1);
  }

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers on first use; returns a stable reference.  Takes a mutex — call
  // at setup time and cache the result.
  LogHistogram& GetHistogram(std::string_view name) SFS_EXCLUDES(mu_);

  int num_shards() const { return num_shards_; }

 private:
  int num_shards_;
  mutable common::Mutex mu_;  // registration only; recording never takes it
  std::vector<std::pair<std::string, std::unique_ptr<LogHistogram>>> histograms_
      SFS_GUARDED_BY(mu_);
};

}  // namespace sfs::obs

#endif  // SFS_OBS_METRICS_H_
