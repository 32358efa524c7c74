#include "src/metrics/service_sampler.h"

#include <utility>

#include "src/common/assert.h"

namespace sfs::metrics {

ServiceSampler::ServiceSampler(sim::Engine& engine, Tick period, std::vector<std::string> labels)
    : labels_(std::move(labels)) {
  for (const auto& label : labels_) {
    series_[label] = {};
  }
  engine.AddPeriodicHook(period, [this](sim::Engine& e) { Sample(e); });
}

void ServiceSampler::Sample(sim::Engine& engine) {
  times_.push_back(engine.now());
  std::map<std::string, Tick, std::less<>> sums;
  for (const auto& label : labels_) {
    sums[label] = 0;
  }
  engine.ForEachTask([&](const sim::Task& task) {
    auto it = sums.find(task.label());
    if (it != sums.end()) {
      it->second += engine.ServiceIncludingRunning(task.tid());
    }
  });
  for (const auto& label : labels_) {
    series_[label].push_back(sums[label]);
  }
}

const std::vector<Tick>& ServiceSampler::Series(std::string_view label) const {
  auto it = series_.find(label);
  SFS_CHECK(it != series_.end());
  return it->second;
}

}  // namespace sfs::metrics
