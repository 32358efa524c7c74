// runtime_mixed: real threads on runtime::Executor (default configuration,
// targeted wakes) over sharded-SFS with p = 2.  One repetition = set up, then
// one Executor::Run of RuntimeInputs::rep_wall.

#ifndef PERFBENCH_SRC_RUNTIME_MIXED_H_
#define PERFBENCH_SRC_RUNTIME_MIXED_H_

#include <cstdint>
#include <vector>

#include "src/inputs.h"
#include "src/obs/metrics.h"

namespace sfsperf {

struct RuntimeRepResult {
  std::vector<double> setup_s;  // one sample per set-up performed
  double wall_s = 0.0;          // Executor::Run's wall time
  double cpu_s = 0.0;           // CPU time of every thread during Executor::Run
  std::int64_t work_units = 0;
  double work_ns = 0.0;      // wall time inside the work functions, all tasks
  double work_cpu_ns = 0.0;  // CPU time inside the work functions, all tasks
  std::int64_t dispatches = 0;
  std::int64_t wakeups = 0;
  std::int64_t preemptions = 0;
  std::int64_t kicks = 0;
  std::int64_t steals = 0;
  std::int64_t shard_migrations = 0;
  double share_ratio_min = 0.0;
  // Blocker resume delays: from (Block return + d) to the next work call.
  std::vector<double> resume_us;

  sfs::obs::HistogramSnapshot dispatch_ns;
  sfs::obs::HistogramSnapshot lock_wait_ns;
  sfs::obs::HistogramSnapshot wake_apply_ns;
  sfs::obs::HistogramSnapshot wake_to_dispatch_ns;
  std::vector<double> preempt_latency_us;

  // Correctness checks.
  bool every_task_ran = false;
  bool every_block_resumed = false;
  bool cpu_within_capacity = false;
};

// Runs one repetition.  `extra_setups` additional set-ups are built, timed
// and torn down unrun first, so that set-up time has enough samples.
RuntimeRepResult RunRuntimeRep(std::uint64_t seed, bool traced, int extra_setups);

// Sums histogram snapshots bucket by bucket.
sfs::obs::HistogramSnapshot MergeHistograms(const sfs::obs::HistogramSnapshot& a,
                                            const sfs::obs::HistogramSnapshot& b);

}  // namespace sfsperf

#endif  // PERFBENCH_SRC_RUNTIME_MIXED_H_
