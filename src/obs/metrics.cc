#include "src/obs/metrics.h"

#include <algorithm>

namespace sfs::obs {

double HistogramSnapshot::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest rank r with r >= ceil(p/100 * N), 1-based.
  std::uint64_t rank =
      static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.999999999);
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return static_cast<double>(LogHistogram::BucketLowerBound(i));
    }
  }
  return static_cast<double>(max_);
}

LogHistogram::LogHistogram(int num_shards)
    : num_shards_(num_shards), shards_(static_cast<std::size_t>(num_shards)) {
  SFS_CHECK(num_shards >= 1);
}

HistogramSnapshot LogHistogram::Snapshot() const {
  std::vector<std::uint64_t> buckets(kNumBuckets, 0);
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  for (const Shard& s : shards_) {
    count += s.count.load(std::memory_order_relaxed);
    sum += s.sum.load(std::memory_order_relaxed);
    max = std::max(max, s.max.load(std::memory_order_relaxed));
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  if (count == 0) {
    max = 0;
    min = 0;
  }
  return HistogramSnapshot(std::move(buckets), count, sum, min, max);
}

LogHistogram& MetricsRegistry::GetHistogram(std::string_view name) {
  common::MutexLock lock(mu_);
  for (auto& [known, histogram] : histograms_) {
    if (known == name) {
      return *histogram;
    }
  }
  histograms_.emplace_back(std::string(name), std::make_unique<LogHistogram>(num_shards_));
  return *histograms_.back().second;
}

}  // namespace sfs::obs
