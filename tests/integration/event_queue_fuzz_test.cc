// Event-order fuzz for the parallel engine, for every scheduler kind
// including the sharded layer.  Each seed builds the shared randomized
// workload (fuzz_workload.h) and fingerprints it with FNV-1a over the
// complete run-interval trace and the scheduler-visible lifecycle event
// stream.  Any divergence in any event's firing order changes the
// fingerprints.  The serial engine's own runs are pinned by the recorded rows
// (recorded_runs_test.cc).
//
// The parallel engine rides the same harness in two dimensions:
//   * workers == 1 must be byte-identical to sim::Engine on the identical
//     randomized workload (same seed stream), for every policy kind — the
//     serial-oracle contract of parallel_engine.h.  The serial run is
//     audited (AuditFor).
//   * workers > 1 runs a hook-free variant (periodic hooks and exit-hook
//     churn are serial-path-only) in segments with quiescent surgery between
//     them (SetWeight, KillTask) and asserts the conservation invariants:
//     arrivals == departures + live, every dispatch charged except tasks
//     still on-CPU at the horizon.
//
// SFS_FUZZ_SEEDS bounds the seeds tried per policy (default 6);
// SFS_FUZZ_SHARDED pins the sharded dimension.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sim/parallel_engine.h"
#include "src/workload/workloads.h"
#include "tests/integration/fuzz_workload.h"
#include "tests/sched_kind_param_name.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;
using sched::ThreadId;

// The identical seed stream through sim::ParallelEngine at workers == 1 (the
// serial-oracle path: periodic hooks and exit-hook churn are legal there).
// Fingerprints only: the audited run is the serial one it is compared with.
TraceResult RunOnceParallelSerial(SchedKind kind, std::uint64_t seed) {
  common::Rng rng(seed);
  auto scheduler = DrawScheduler(kind, rng);

  sim::ParallelEngineConfig engine_config;
  engine_config.workers = 1;
  engine_config.context_switch_cost = Usec(rng.UniformInt(0, 500));
  sim::ParallelEngine engine(*scheduler, engine_config);

  RunObserver observer;
  engine.SetRunIntervalHook(
      [&observer](int /*worker*/, Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
        observer.OnRunInterval(start, len, cpu, tid);
      });
  engine.SetSchedEventHook(
      [&observer](int /*worker*/, sim::SchedEvent event, const sim::Task& task, Tick now) {
        observer.OnSchedEvent(event, task, now);
      });

  ThreadId next_tid = 1;
  std::vector<ThreadId> hogs;
  BuildSerialWorkload(engine, rng, seed, next_tid, hogs);
  engine.RunUntil(kFuzzHorizon);
  return Collect(engine, observer);
}

class EventQueueFuzzTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(EventQueueFuzzTest, ParallelEngineWorkersOneIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= FuzzSeedCount(6); ++seed) {
    const TraceResult serial = RunFuzzWorkload(GetParam(), seed);
    const TraceResult parallel = RunOnceParallelSerial(GetParam(), seed);
    EXPECT_EQ(serial.run_fingerprint, parallel.run_fingerprint) << "seed " << seed;
    EXPECT_EQ(serial.lifecycle_fingerprint, parallel.lifecycle_fingerprint) << "seed " << seed;
    EXPECT_TRUE(serial == parallel) << "seed " << seed;
  }
}

// workers > 1: a hook-free randomized workload, run in segments with
// quiescent surgery between them; the exact schedule is policy- and
// interleaving-dependent, the conservation invariants are not.
TEST_P(EventQueueFuzzTest, ParallelEngineManyWorkersConserves) {
  for (std::uint64_t seed = 1; seed <= FuzzSeedCount(6); ++seed) {
    common::Rng rng(seed * 977 + 13);
    sched::SchedConfig config;
    config.num_cpus = static_cast<int>(rng.UniformInt(2, 4));
    config.quantum = Msec(rng.UniformInt(5, 200));
    SchedKind effective_kind = GetParam();
    if (const auto sharded_kind = sched::ShardedKindFor(GetParam());
        sharded_kind.has_value() && rng.Bernoulli(0.5)) {
      effective_kind = *sharded_kind;
      config.shard_steal = rng.Bernoulli(0.75) ? sched::ShardStealPolicy::kMaxSurplus
                                               : sched::ShardStealPolicy::kNone;
    }
    auto scheduler = CreateScheduler(effective_kind, config);

    sim::ParallelEngineConfig engine_config;
    engine_config.workers = static_cast<int>(rng.UniformInt(2, config.num_cpus));
    engine_config.epoch = Msec(rng.UniformInt(2, 20));
    engine_config.context_switch_cost = Usec(rng.UniformInt(0, 500));
    sim::ParallelEngine engine(*scheduler, engine_config);

    std::vector<std::int64_t> arrivals(static_cast<std::size_t>(engine_config.workers));
    std::vector<std::int64_t> departures(static_cast<std::size_t>(engine_config.workers));
    std::vector<std::int64_t> run_intervals(static_cast<std::size_t>(engine_config.workers));
    engine.SetSchedEventHook(
        [&arrivals, &departures](int worker, sim::SchedEvent event, const sim::Task&, Tick) {
          if (event == sim::SchedEvent::kArrival) {
            ++arrivals[static_cast<std::size_t>(worker)];
          } else if (event == sim::SchedEvent::kDeparture) {
            ++departures[static_cast<std::size_t>(worker)];
          }
        });
    engine.SetRunIntervalHook(
        [&run_intervals](int worker, Tick, Tick, sched::CpuId, ThreadId) {
          ++run_intervals[static_cast<std::size_t>(worker)];
        });

    ThreadId next_tid = 1;
    std::vector<ThreadId> hogs;
    const int n_hogs = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < n_hogs; ++i) {
      hogs.push_back(next_tid);
      engine.AddTaskAt(Msec(rng.UniformInt(0, 1000)),
                       workload::MakeInf(next_tid++, static_cast<double>(rng.UniformInt(1, 30)),
                                         "hog"));
    }
    const int n_interact = static_cast<int>(rng.UniformInt(2, 10));
    for (int i = 0; i < n_interact; ++i) {
      workload::Interact::Params params;
      params.mean_think = Msec(rng.UniformInt(5, 100));
      params.burst = Msec(rng.UniformInt(1, 10));
      params.seed = seed + static_cast<std::uint64_t>(i);
      engine.AddTaskAt(Msec(rng.UniformInt(0, 1000)),
                       workload::MakeInteract(next_tid++, 1.0, params, nullptr, "interact"));
    }
    const int n_short = static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < n_short; ++i) {
      engine.AddTaskAt(Msec(rng.UniformInt(0, 2000)),
                       workload::MakeFixedWork(next_tid++,
                                               static_cast<double>(rng.UniformInt(1, 10)),
                                               Msec(rng.UniformInt(10, 400)), "short"));
    }
    const std::int64_t total_tasks = next_tid - 1;

    engine.RunUntil(Sec(2));
    engine.scheduler().SetWeight(hogs[0], static_cast<double>(rng.UniformInt(1, 50)));
    engine.RunUntil(Sec(4));
    if (hogs.size() > 1 && engine.HasTask(hogs[1]) &&
        engine.task(hogs[1]).state() != sim::Task::State::kExited) {
      engine.KillTask(hogs[1]);
    }
    engine.RunUntil(Sec(6));

    std::int64_t arrived = 0;
    std::int64_t departed = 0;
    std::int64_t charged = 0;
    for (int w = 0; w < engine_config.workers; ++w) {
      arrived += arrivals[static_cast<std::size_t>(w)];
      departed += departures[static_cast<std::size_t>(w)];
      charged += run_intervals[static_cast<std::size_t>(w)];
    }
    std::int64_t live = 0;
    engine.ForEachTask([&live](const sim::Task& task) {
      if (task.state() != sim::Task::State::kNew && task.state() != sim::Task::State::kExited) {
        ++live;
      }
    });
    EXPECT_EQ(arrived, total_tasks) << "seed " << seed;
    EXPECT_EQ(arrived, departed + live) << "seed " << seed;
    // Every reported run interval stems from a dispatch; the counts differ by
    // tasks still on-CPU at the horizon plus zero-length grants (dispatched
    // and preempted at the same tick), which the hook elides by contract.
    EXPECT_GT(charged, 0) << "seed " << seed;
    EXPECT_GE(engine.dispatches(), charged) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EventQueueFuzzTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq,
                                           SchedKind::kWfq, SchedKind::kTimeshare),
                         SchedKindParamName);

}  // namespace
}  // namespace sfs::eval
