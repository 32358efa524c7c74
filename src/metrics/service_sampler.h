// Periodic cumulative-service sampler.
//
// Records, at a fixed simulated period, the total CPU service received by each
// *label* (summed across all tasks carrying the label, including exited ones).
// This is exactly what Figures 4 and 5 plot: cumulative iteration counts per
// task group over time.  Labels aggregate naturally — the 20 background threads
// of Figure 5 share one label, as does the chain of short-lived T_short tasks.

#ifndef SFS_METRICS_SERVICE_SAMPLER_H_
#define SFS_METRICS_SERVICE_SAMPLER_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/sim/engine.h"

namespace sfs::metrics {

class ServiceSampler {
 public:
  // Starts sampling `engine` every `period`; only tasks whose label is in
  // `labels` are tracked.  Must outlive the engine run.
  ServiceSampler(sim::Engine& engine, Tick period, std::vector<std::string> labels);

  const std::vector<Tick>& times() const { return times_; }

  // Cumulative service (ticks) of `label` at each sample point.
  const std::vector<Tick>& Series(std::string_view label) const;

  const std::vector<std::string>& labels() const { return labels_; }

 private:
  void Sample(sim::Engine& engine);

  std::vector<std::string> labels_;
  std::vector<Tick> times_;
  std::map<std::string, std::vector<Tick>, std::less<>> series_;
};

}  // namespace sfs::metrics

#endif  // SFS_METRICS_SERVICE_SAMPLER_H_
