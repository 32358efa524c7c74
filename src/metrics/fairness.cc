#include "src/metrics/fairness.h"

#include <algorithm>
#include <cmath>

#include "src/common/assert.h"

namespace sfs::metrics {

double JainIndex(const std::vector<double>& services, const std::vector<double>& phis) {
  SFS_CHECK(services.size() == phis.size());
  if (services.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < services.size(); ++i) {
    SFS_CHECK(phis[i] > 0);
    const double x = services[i] / phis[i];
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) {
    return 1.0;
  }
  const auto n = static_cast<double>(services.size());
  return (sum * sum) / (n * sum_sq);
}

double MaxGmsDeviation(const std::vector<double>& actual, const std::vector<double>& fluid) {
  SFS_CHECK(actual.size() == fluid.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    worst = std::max(worst, std::abs(actual[i] - fluid[i]));
  }
  return worst;
}

Tick LongestStarvation(const std::vector<Tick>& cumulative_series, Tick period) {
  SFS_CHECK(period > 0);
  Tick longest = 0;
  Tick current = 0;
  Tick prev = 0;
  bool first = true;
  for (Tick v : cumulative_series) {
    if (first) {
      first = false;
      prev = v;
      continue;
    }
    if (v == prev) {
      current += period;
      longest = std::max(longest, current);
    } else {
      current = 0;
    }
    prev = v;
  }
  return longest;
}

}  // namespace sfs::metrics
