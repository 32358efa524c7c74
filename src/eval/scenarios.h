// Reusable experiment runners: one per figure/table of the paper's evaluation.
//
// Each runner builds the exact workload of the corresponding experiment, drives
// it through the discrete-event simulator, and returns structured data.  The
// bench binaries print these as tables/series; the integration tests assert the
// paper's qualitative results (who wins, who starves, what's proportional).
// See DESIGN.md section 7 for the experiment index.

#ifndef SFS_EVAL_SCENARIOS_H_
#define SFS_EVAL_SCENARIOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/metrics/response.h"
#include "src/sched/factory.h"

namespace sfs::obs {
class MetricsRegistry;  // src/obs/metrics.h
class Trace;            // src/obs/trace.h
}  // namespace sfs::obs

namespace sfs::eval {

// Optional observability sinks accepted by the throughput/fairness runners.
// Both fields may stay null (the default) at zero cost.  `trace` must use the
// sim-tick clock and have at least as many rings as the scenario has CPUs;
// `metrics` receives the engine's sim-time histograms (sim/quantum_ticks,
// sim/run_interval_ticks).  Recording never feeds back into scheduling, so a
// runner's deterministic results are identical with sinks attached or not —
// bench/abl_sharded CHECK-asserts exactly that.
struct ObsSinks {
  obs::Trace* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// Cumulative service per label sampled over time.
struct SeriesResult {
  std::vector<Tick> times;
  std::map<std::string, std::vector<Tick>> series;  // label -> cumulative ticks
  std::string scheduler_name;

  const std::vector<Tick>& Of(const std::string& label) const;
};

// ---------------------------------------------------------------------------
// Figure 1 / Example 1 (Section 1.2): the infeasible weights problem.
// Two CPUs, q = 1 ms; T1 (w=1) and T2 (w=10) run from t=0; T3 (w=1) arrives at
// `t3_arrival`.  Under plain SFQ, T1 starves from T3's arrival until the start
// tags catch up (~0.9 * t3_arrival).  Returns a sampled series plus the longest
// observed starvation window for T1.
struct Example1Result {
  SeriesResult series;
  Tick t1_starvation = 0;  // longest window with zero T1 progress
};
Example1Result RunExample1(sched::SchedKind kind, bool readjust,
                           Tick t3_arrival = Sec(1), Tick horizon = Sec(3),
                           Tick quantum = Msec(1));

// Example 2 (Section 1.2): frequent arrivals/departures with feasible weights.
// Two CPUs; one thread with a huge weight, `light_threads` threads of weight 1,
// and a back-to-back chain of short jobs of weight `short_weight` running
// `short_len` each.  Reports the service rates of the heavy thread and of the
// short-job chain; SFQ gives the chain ~a full CPU, proportional schedulers
// give it ~short_weight/heavy_weight of the heavy thread's service.
struct Example2Result {
  Tick heavy_service = 0;
  Tick shorts_service = 0;
  Tick light_service = 0;  // aggregate over the weight-1 threads
  double shorts_to_heavy_ratio = 0.0;
};
Example2Result RunExample2(sched::SchedKind kind, int heavy_weight = 50,
                           int light_threads = 100, int short_weight = 15,
                           Tick short_len = Msec(300), Tick horizon = Sec(60));

// ---------------------------------------------------------------------------
// Figure 3 (Section 3.2): efficacy of the scheduling heuristic.
// Quad-processor system with `runnable` compute-bound threads of random weights;
// drives the heuristic model (eval::HeuristicSfs, default refresh period) and
// audits every decision against the exact algorithm.  Returns the percentage of decisions where the heuristic picked the
// true minimum-surplus thread.
double HeuristicAccuracy(int runnable, int k, int cpus = 4, int decisions = 4000,
                         std::uint64_t seed = 42);

// ---------------------------------------------------------------------------
// Figure 4 (Section 4.2): impact of the weight readjustment algorithm.
// Two CPUs, q = 200 ms.  T1 (w=1) and T2 (w=10) start at t=0; T3 (w=1) arrives
// at t=15s; T2 departs at t=30s; horizon 40s.  Labels: "T1", "T2", "T3".
SeriesResult RunFig4(sched::SchedKind kind, bool readjust, Tick horizon = Sec(40));

// ---------------------------------------------------------------------------
// Figure 5 (Section 4.3): the short jobs problem, SFQ vs SFS.
// Two CPUs; T1 (w=20), T2-T21 (20 threads, w=1 each), and a chain of short jobs
// (w=5, 300 ms each, back to back).  Labels: "T1", "T2-21", "T_short".
// `quantum` defaults to the paper's 200 ms; the residual over-allocation of the
// short jobs under SFS shrinks with the quantum (tag quantization q/phi), which
// the fig5 bench sweeps.
SeriesResult RunFig5(sched::SchedKind kind, Tick horizon = Sec(30),
                     Tick quantum = kDefaultQuantum);

// ---------------------------------------------------------------------------
// Figure 6(a) (Section 4.4): proportionate allocation.
// 20 background dhrystones (w=1) plus two dhrystones at weights wa:wb; returns
// loops/sec of the two foreground benchmarks over the horizon.
struct Fig6aResult {
  double loops_per_sec_a = 0.0;
  double loops_per_sec_b = 0.0;
  double ratio = 0.0;
};
Fig6aResult RunFig6a(sched::SchedKind kind, int wa, int wb, Tick horizon = Sec(20));

// ---------------------------------------------------------------------------
// Figure 6(b) (Section 4.4): application isolation.
// MPEG decoder (large weight) + `compile_jobs` gcc-like jobs (w=1) on 2 CPUs;
// returns achieved frames/sec.  SFS isolates (~30 fps flat); time sharing decays.
double RunFig6b(sched::SchedKind kind, int compile_jobs, Tick horizon = Sec(60));

// ---------------------------------------------------------------------------
// Figure 6(c) (Section 4.4): interactive performance.
// Interact (w=1) + `disksim_jobs` background simulations (w=1) on 2 CPUs;
// returns response-time statistics in milliseconds.
metrics::ResponseStats RunFig6c(sched::SchedKind kind, int disksim_jobs,
                                Tick horizon = Sec(120));

// ---------------------------------------------------------------------------
// Fairness audit (used by property tests and the ablation benches): runs
// compute-bound threads with the given weights on `cpus` processors and returns
// the max |A_i - A_i^GMS| deviation at the horizon, in ticks.  The GMS reference
// always uses readjusted instantaneous weights (that is its definition);
// `scheduler_readjust` toggles the algorithm under test only.
double GmsDeviationForWeights(sched::SchedKind kind, const std::vector<double>& weights,
                              int cpus, Tick horizon, Tick quantum = kDefaultQuantum,
                              int fixed_point_digits = -1, bool scheduler_readjust = true);

// Generalization with per-thread arrival times.  Static infeasible workloads
// self-cap under any work-conserving scheduler (a thread cannot use more than
// one processor), so the Example 1 divergence only shows with late arrivals.
struct TimedArrival {
  Tick at = 0;
  double weight = 1.0;
};
double GmsDeviationForArrivals(sched::SchedKind kind, const std::vector<TimedArrival>& arrivals,
                               int cpus, Tick horizon, Tick quantum = kDefaultQuantum,
                               int fixed_point_digits = -1, bool scheduler_readjust = true);

// ---------------------------------------------------------------------------
// Exact SFS decision scaling (ablation A9): SFS with `threads` compute-bound
// threads of seeded random weights on `cpus` processors, driven to
// `horizon`.  Returns schedule-derived metrics, each a pure function of the
// seed, plus wall-clock cost per decision (reported only under --timing).
struct RunScalingResult {
  std::int64_t decisions = 0;           // engine dispatches over the horizon
  std::uint64_t schedule_fingerprint = 0;  // FNV-1a over every run interval
  double gms_deviation_ms = 0.0;        // max |A_i - A_i^GMS| at horizon, ms
  std::int64_t full_refreshes = 0;      // SFS surplus refresh passes
  std::int64_t refresh_repositions = 0;  // entities the refreshes repositioned
  std::int64_t charges = 0;             // completed run intervals, each one Charge
  std::int64_t filing_probes = 0;       // run tags probed filing threads (Sfs::filing_probes)
  double wall_ns_per_decision = 0.0;    // wall clock; Reporter::Timing only
};
RunScalingResult RunScaling(int threads, int cpus, Tick horizon, std::uint64_t seed,
                            Tick quantum = kDefaultQuantum);

// ---------------------------------------------------------------------------
// Engine event-loop throughput (ablation A12): `threads` tasks total on
// `cpus` processors under SFS — min(cpus, 2, threads) background hogs, the
// rest Interact-style sleepers with long seeded think times and
// sub-millisecond bursts.  Mostly-blocked sleepers are the event queue's
// worst case (every blocked thread holds a pending wakeup, so the queue
// scales with t while the run queues stay small).  Everything except
// `wall_ns` is a pure function of (threads, cpus, horizon, seed); the
// fingerprints are the ones bench/abl_engine_throughput.cc publishes.
struct EngineThroughputResult {
  std::int64_t events = 0;                 // events popped over the horizon
  std::int64_t decisions = 0;              // engine dispatches over the horizon
  std::int64_t preemptions = 0;
  std::uint64_t schedule_fingerprint = 0;  // FNV-1a over every run interval
  std::uint64_t lifecycle_fingerprint = 0;  // FNV-1a over every sched event
  double wall_ns = 0.0;                    // wall clock; Reporter::Timing only
};
EngineThroughputResult RunEngineThroughput(int threads, int cpus, Tick horizon,
                                           std::uint64_t seed, const ObsSinks& sinks = {});

// ---------------------------------------------------------------------------
// Parallel-engine throughput (DESIGN.md §10, experiment A13): the same
// hogs-plus-sleepers workload as RunEngineThroughput, but home-hinted
// (tid % cpus) onto a *partitioned* sharded-SFS scheduler (stealing off,
// rebalancing off, coupling 0) and driven by sim::ParallelEngine with
// `workers` simulation threads.  Partitioning makes the schedule a disjoint
// union of per-shard-group subproblems, so fingerprints are kept per group
// (group g = the CPUs worker g owns under `groups` workers): byte-equal
// group vectors across worker counts — including the workers == 0 serial
// sim::Engine oracle — are the parallel engine's exactness contract, at any
// level of real parallelism.  Everything except wall_ns is a pure function
// of (groups, threads, cpus, horizon, seed).
struct ParallelEngineThroughputResult {
  std::int64_t events = 0;     // events popped over the horizon (all workers)
  std::int64_t decisions = 0;  // engine dispatches over the horizon
  std::int64_t preemptions = 0;
  std::int64_t mailed_wakeups = 0;  // cross-worker mailbox deliveries (0 here)
  std::int64_t epochs = 0;          // barriers crossed (0 on serial paths)
  // FNV-1a per shard group, indexed by group id; sized `groups`.
  std::vector<std::uint64_t> group_schedule_fingerprints;
  std::vector<std::uint64_t> group_lifecycle_fingerprints;
  double wall_ns = 0.0;  // wall clock; Reporter::Timing only
};
// `workers` == 0 runs the serial sim::Engine oracle over the identical
// scheduler + workload (grouping fingerprints as `groups` would); otherwise
// 1 <= workers <= cpus drives the parallel engine, and `groups` must equal
// `workers`.  `epoch` is the conservative synchronization horizon.
ParallelEngineThroughputResult RunParallelEngineThroughput(
    int workers, int groups, int threads, int cpus, Tick horizon, std::uint64_t seed,
    Tick epoch = Msec(10), const ObsSinks& sinks = {});

// ---------------------------------------------------------------------------
// Sharded scheduling pathology (Section 1.2, generalized): `threads` threads
// with seeded random weights on config.num_cpus processors — mostly
// compute-bound hogs, plus a capped band of interactive sleepers (blocking)
// and fixed-work terminators (exiting mid-run), and a seeded batch of hogs
// killed at a third of the horizon.  This recreates the "blocked/terminated
// threads can cause imbalances (and unfairness) across partitions" scenario
// the paper cites against per-processor scheduling.  The scheduler is built
// from its canonical policy name via sched::MakeScheduler, so one runner
// drives the global, partitioned and sharded designs; fairness is the max
// deviation of the surviving hogs from the event-mirrored GMS fluid
// reference.  Everything except wall_ns_per_decision is a pure function of
// (policy, config, threads, horizon, seed).
struct ShardedFairnessResult {
  std::int64_t decisions = 0;              // engine dispatches over the horizon
  std::uint64_t schedule_fingerprint = 0;  // FNV-1a over every run interval
  double gms_deviation_ms = 0.0;           // max |A_i - A_i^GMS| over surviving hogs, ms
  std::int64_t steals = 0;                 // scheduler-level idle-pull migrations
  std::int64_t shard_migrations = 0;       // scheduler-level rebalance moves
  std::int64_t engine_migrations = 0;      // cross-CPU dispatches the engine saw
  double wall_ns_per_decision = 0.0;       // wall clock; Reporter::Timing only
};
ShardedFairnessResult RunShardedFairness(std::string_view policy,
                                         const sched::SchedConfig& config, int threads,
                                         Tick horizon, std::uint64_t seed,
                                         const ObsSinks& sinks = {});

}  // namespace sfs::eval

#endif  // SFS_EVAL_SCENARIOS_H_
