// The three simulator workloads: one repetition = generate the seeded inputs,
// build the scheduler and engine, register every task (the set-up), then one
// RunUntil over the workload's horizon (the measured run).

#ifndef PERFBENCH_SRC_SIM_WORKLOADS_H_
#define PERFBENCH_SRC_SIM_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/inputs.h"

namespace sfsperf {

struct SimRepOptions {
  Workload workload = Workload::kSimCpuBound;
  // Timed scheduler and behaviour decorators (the traced run).
  bool traced = false;
  // Attach the fingerprint hooks (check repetitions only: the hooks cost a
  // std::function call per event, so timed repetitions run without them).
  bool fingerprints = false;
  // sim_io_parallel only: run the partitioned inputs on the serial
  // sim::Engine instead of the parallel engine (the per-group oracle).
  bool oracle = false;
};

struct SimRepResult {
  double setup_s = 0.0;
  double run_s = 0.0;      // RunUntil wall time
  double run_cpu_s = 0.0;  // CPU time of every thread during RunUntil
  std::int64_t run_start_ns = 0;
  std::int64_t run_end_ns = 0;

  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  std::int64_t context_switches = 0;
  std::int64_t migrations = 0;
  std::int64_t steals = 0;
  std::int64_t shard_migrations = 0;
  std::int64_t epochs = 0;
  std::int64_t mailed_wakeups = 0;
  std::int64_t full_refreshes = 0;
  std::int64_t refresh_repositions = 0;

  double service_ms = 0.0;   // simulated CPU service delivered, all tasks
  bool capacity_ok = false;  // service + idle + switch cost == p * horizon
  double share_ratio_min = 0.0;

  // Whole-run fingerprints (serial engines), and per shard group (sim_io_parallel,
  // group g = the CPUs parallel worker g owns).
  std::uint64_t schedule_fp = 0;
  std::uint64_t lifecycle_fp = 0;
  std::vector<std::uint64_t> group_schedule_fps;
  std::vector<std::uint64_t> group_lifecycle_fps;
};

SimRepResult RunSimRep(const SimRepOptions& options, std::uint64_t seed);

// sim_io_parallel's worker count: 4, never more than the host's processors.
int ParallelWorkers();

// Schedule and lifecycle fingerprints of kDefaultSeed, pinned for the serial
// workloads (nullopt for sim_io_parallel, whose groups follow the host's
// worker count, and for runtime_mixed).
struct PinnedFingerprints {
  std::uint64_t schedule = 0;
  std::uint64_t lifecycle = 0;
};
std::optional<PinnedFingerprints> PinnedFor(Workload workload);

}  // namespace sfsperf

#endif  // PERFBENCH_SRC_SIM_WORKLOADS_H_
