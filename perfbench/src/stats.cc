#include "src/stats.h"

#include <algorithm>
#include <cmath>

namespace sfsperf {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// 1-based nearest rank of percentile p in a sample of n (n >= 1).
std::size_t NearestRank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::optional<TailPercentile> HighestSupportedPercentile(const std::vector<double>& samples,
                                                         std::size_t min_beyond) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    const std::size_t beyond = SamplesBeyond(n, p);
    if (n > 0 && beyond >= min_beyond) {
      return TailPercentile{p, sorted[NearestRank(n, p) - 1], n, beyond};
    }
  }
  return std::nullopt;
}

}  // namespace sfsperf
