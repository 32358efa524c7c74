// Order statistics for the benchmark's reported numbers.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace sfsperf {

// Median of `values` (mean of the two middle values for even counts); 0 for
// an empty input.
double Median(std::vector<double> values);

// Nearest-rank percentile, p in [0, 100]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

// Samples strictly beyond the nearest-rank position of percentile p in a
// sample of n: n - ceil(p/100 * n).
std::size_t SamplesBeyond(std::size_t n, double p);

// A percentile together with the evidence behind it.
struct TailPercentile {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;  // sample count
  std::size_t beyond = 0;   // samples beyond the percentile's rank
};

// The highest of p50, p90, p99 and p99.9 that has at least `min_beyond`
// samples beyond it, with the sample count.  nullopt when even the median
// lacks that support.
std::optional<TailPercentile> HighestSupportedPercentile(const std::vector<double>& samples,
                                                         std::size_t min_beyond = 10);

}  // namespace sfsperf

#endif  // PERFBENCH_SRC_STATS_H_
