// Sample statistics used by the metrics library, the runtime and benchmarks.

#ifndef SFS_COMMON_STATS_H_
#define SFS_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace sfs::common {

// Stores every sample; supports exact percentiles.  Use for modest sample counts
// (response times, per-decision latencies).
class SampleSet {
 public:
  void Add(double x);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  // Exact percentile by nearest-rank; p in [0, 100].
  double Percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;

  void EnsureSorted() const;
};

}  // namespace sfs::common

#endif  // SFS_COMMON_STATS_H_
