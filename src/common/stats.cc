#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/assert.h"

namespace sfs::common {

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  SFS_DCHECK(p >= 0.0 && p <= 100.0);
  const auto n = static_cast<double>(samples_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank > 0) {
    --rank;
  }
  rank = std::min(rank, samples_.size() - 1);
  return samples_[rank];
}

}  // namespace sfs::common
