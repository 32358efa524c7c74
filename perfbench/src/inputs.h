// Seeded input generators for the benchmark's workloads.
//
// Every workload's inputs are a pure function of the seed: the same seed gives
// byte-identical Serialize() output.  The programs under test receive only
// these generated inputs (task specs, weight changes, block durations).

#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/sched/types.h"

namespace sfsperf {

using sfs::Tick;

enum class Workload { kSimCpuBound, kSimIoSerial, kSimIoParallel, kRuntimeMixed };

std::string_view WorkloadName(Workload workload);
std::optional<Workload> ParseWorkload(std::string_view name);

// The seed BENCHMARK.json runs default to, whose schedule fingerprints are
// pinned in sim_workloads.cc, and a seed kept out of tuning so that later
// claims can be re-checked on inputs nobody optimised against.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

// One simulated thread.
struct SimTaskSpec {
  enum class Kind : std::uint8_t { kDhrystone, kInf, kInteract, kFixedWork, kCompileJob };
  Kind kind = Kind::kDhrystone;
  sfs::sched::ThreadId tid = 0;
  double weight = 1.0;
  Tick arrival = 0;
  sfs::sched::CpuId home = sfs::sched::kInvalidCpu;  // placement hint
  Tick work = 0;                    // kFixedWork: total CPU demand
  Tick mean_think = 0;              // kInteract think time; kCompileJob I/O block
  Tick burst = 0;                   // kInteract burst; kCompileJob mean CPU burst
  std::uint64_t behavior_seed = 0;  // kInteract, kCompileJob random stream
};

struct WeightChange {
  sfs::sched::ThreadId tid = 0;
  double weight = 1.0;
};

struct SimInputs {
  int cpus = 1;
  Tick horizon = 0;
  std::vector<SimTaskSpec> tasks;
  // One SetWeight applied every `weight_change_period` (0 = none), in order.
  Tick weight_change_period = 0;
  std::vector<WeightChange> weight_changes;
  // share_ratio_min's threads and their entitled relative shares.
  std::vector<sfs::sched::ThreadId> hogs;
  std::vector<double> hog_entitlement;

  std::string Serialize() const;
};

// sim_cpu_bound: ~1k always-runnable Dhrystone threads with heavy-tailed
// weights (three of them infeasible), an evenly spread stream of short FixedWork
// jobs, and one SetWeight every 100 ms; p = 16.
SimInputs MakeCpuBoundInputs(std::uint64_t seed);

// sim_io_serial / sim_io_parallel: ~10k threads home-hinted tid % 64 — one
// CPU-heavy thread per shard (48 Inf hogs and 16 CompileJobs that block half
// the time, so some shards idle and steal), mostly-blocked Interact sleepers
// with sub-ms bursts, and an evenly spread stream of short FixedWork jobs; p = 64.
SimInputs MakeIoInputs(std::uint64_t seed);

struct RuntimeInputs {
  int cpus = 2;
  Tick rep_wall = 0;  // wall length of one Executor::Run
  std::vector<double> hog_weights;
  std::vector<double> hog_entitlement;
  // Per blocker: the Block durations it cycles through.
  std::vector<std::vector<Tick>> block_durations;

  std::string Serialize() const;
};

// runtime_mixed: two spinning hogs with weights 1:3 and four closed-loop
// blockers (a short work unit, then Block for 1-5 ms); p = 2.
RuntimeInputs MakeRuntimeInputs(std::uint64_t seed);

}  // namespace sfsperf

#endif  // PERFBENCH_SRC_INPUTS_H_
