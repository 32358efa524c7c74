// Event-order fuzz for the engines, for every scheduler kind including the
// sharded layer.  Each seed builds one randomized workload (hogs, interactive
// sleepers, a churning short-job chain, mid-run weight surgery and a kill)
// and fingerprints it with FNV-1a over the complete run-interval trace and
// the scheduler-visible lifecycle event stream.  Any divergence in any
// event's firing order changes the fingerprints.
//
//   * The serial engine (timing wheel) must reproduce the recorded runs of
//     the deleted binary-heap event queue (recorded_runs.h, seeds 1-6), which
//     pins the wheel to (time, insertion) event order.
//
// The parallel engine rides the same harness in two dimensions:
//   * workers == 1 must be byte-identical to sim::Engine on the identical
//     randomized workload (same seed stream), for every policy kind — the
//     serial-oracle contract of parallel_engine.h.
//   * workers > 1 runs a hook-free variant (periodic hooks and exit-hook
//     churn are serial-path-only) in segments with quiescent surgery between
//     them (SetWeight, KillTask) and asserts the conservation invariants:
//     arrivals == departures + live, every dispatch charged except tasks
//     still on-CPU at the horizon.
//
// SFS_FUZZ_SEEDS bounds the seeds tried per policy (default 6), as in
// fuzz_test.cc; SFS_FUZZ_SHARDED pins the sharded dimension (except against
// the recorded runs, whose values depend on the seed alone).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/sim/parallel_engine.h"
#include "src/workload/workloads.h"
#include "tests/integration/recorded_runs.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;
using sched::ThreadId;

struct TraceResult {
  std::uint64_t run_fingerprint = 0;
  std::uint64_t lifecycle_fingerprint = 0;
  std::vector<Tick> services;
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  Tick idle = 0;
  Tick ctx_cost = 0;

  bool operator==(const TraceResult&) const = default;
};

// Scheduler construction shared by every dimension: all randomness flows
// through `rng` in a fixed draw order, so any two runners fed the same seed
// build identical schedulers (and identical workloads afterwards).
// `honor_env` lets SFS_FUZZ_SHARDED override the sharded draw.
std::unique_ptr<sched::Scheduler> DrawScheduler(SchedKind kind, common::Rng& rng,
                                                int* num_cpus_out, bool honor_env = true) {
  sched::SchedConfig config;
  config.num_cpus = static_cast<int>(rng.UniformInt(1, 4));
  config.quantum = Msec(rng.UniformInt(5, 200));
  config.queue_backend =
      rng.Bernoulli(0.5) ? sched::QueueBackend::kSkipList : sched::QueueBackend::kSortedList;
  SchedKind effective_kind = kind;
  if (const auto sharded_kind = sched::ShardedKindFor(kind); sharded_kind.has_value()) {
    bool use_sharded = rng.Bernoulli(0.5);
    if (const char* env = std::getenv("SFS_FUZZ_SHARDED"); honor_env && env != nullptr) {
      use_sharded = env[0] == '1';
    }
    if (use_sharded) {
      effective_kind = *sharded_kind;
      config.shard_steal = rng.Bernoulli(0.75) ? sched::ShardStealPolicy::kMaxSurplus
                                               : sched::ShardStealPolicy::kNone;
      config.shard_rebalance_period =
          rng.Bernoulli(0.5) ? static_cast<int>(rng.UniformInt(4, 256)) : 0;
      config.shard_coupling = 0.5 * static_cast<double>(rng.UniformInt(0, 2));
    }
  }
  *num_cpus_out = config.num_cpus;
  return CreateScheduler(effective_kind, config);
}

// The randomized serial workload: hogs, interactive sleepers, a churning
// short-job chain through the exit hook, periodic weight surgery and a
// one-shot kill.  Generic over sim::Engine / sim::ParallelEngine (workers=1):
// both expose the same names, so the same draws build the same simulation.
template <typename EngineT>
void BuildSerialWorkload(EngineT& engine, common::Rng& rng, std::uint64_t seed,
                         ThreadId& next_tid, std::vector<ThreadId>& hogs) {
  const int n_hogs = static_cast<int>(rng.UniformInt(1, 6));
  for (int i = 0; i < n_hogs; ++i) {
    hogs.push_back(next_tid);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 2000)),
                     workload::MakeInf(next_tid++, static_cast<double>(rng.UniformInt(1, 30)),
                                       "hog"));
  }
  const int n_interact = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < n_interact; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(rng.UniformInt(20, 200));
    params.burst = Msec(rng.UniformInt(1, 10));
    params.seed = seed + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 1000)),
                     workload::MakeInteract(next_tid++, 1.0, params, nullptr, "interact"));
  }
  // A churning chain of short jobs: exit-hook execution order feeds straight
  // back into the event queue (same-tick arrivals), the FIFO contract's
  // hardest case.
  engine.SetExitHook([&next_tid, &rng](auto& e, sim::Task& task) {
    if (task.label() == "short") {
      e.AddTaskAt(e.now() + Msec(rng.UniformInt(0, 50)),
                  workload::MakeFixedWork(next_tid++, static_cast<double>(rng.UniformInt(1, 10)),
                                          Msec(rng.UniformInt(10, 400)), "short"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, 2.0, Msec(100), "short"));

  engine.AddPeriodicHook(Msec(777), [&](auto& e) {
    if (!hogs.empty() && e.HasTask(hogs[0])) {
      const auto state = e.task(hogs[0]).state();
      if (state != sim::Task::State::kExited && state != sim::Task::State::kNew &&
          rng.Bernoulli(0.5)) {
        e.scheduler().SetWeight(hogs[0], static_cast<double>(rng.UniformInt(1, 50)));
      }
    }
  });
  const Tick kill_at = Msec(rng.UniformInt(2500, 5000));
  engine.AddPeriodicHook(kill_at, [&, done = false](auto& e) mutable {
    if (!done && hogs.size() > 1 && e.HasTask(hogs[1]) &&
        e.task(hogs[1]).state() != sim::Task::State::kExited) {
      e.KillTask(hogs[1]);
      done = true;
    }
  });
}

template <typename EngineT>
TraceResult Collect(EngineT& engine, const common::Fnv1a& run_fp, const common::Fnv1a& life_fp) {
  TraceResult result;
  engine.ForEachTask(
      [&](const sim::Task& task) { result.services.push_back(engine.Service(task.tid())); });
  result.run_fingerprint = run_fp.value();
  result.lifecycle_fingerprint = life_fp.value();
  result.events = engine.events_processed();
  result.dispatches = engine.dispatches();
  result.preemptions = engine.preemptions();
  result.idle = engine.idle_time();
  result.ctx_cost = engine.total_context_switch_cost();
  return result;
}

// One randomized workload, driven to the horizon on the serial engine.  All
// randomness (workload shape and mid-run surgery draws) flows through
// Rng(seed), so two runs with the same seed diverge only if the engines
// disagree on event order.
TraceResult RunOnce(SchedKind kind, std::uint64_t seed, bool honor_env = true) {
  common::Rng rng(seed);
  int num_cpus = 0;
  auto scheduler = DrawScheduler(kind, rng, &num_cpus, honor_env);

  sim::EngineConfig engine_config;
  engine_config.context_switch_cost = Usec(rng.UniformInt(0, 500));
  sim::Engine engine(*scheduler, engine_config);

  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook(
      [&run_fp](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
        run_fp.Mix(static_cast<std::uint64_t>(start));
        run_fp.Mix(static_cast<std::uint64_t>(len));
        run_fp.Mix(static_cast<std::uint64_t>(cpu));
        run_fp.Mix(static_cast<std::uint64_t>(tid));
      });
  engine.SetSchedEventHook(
      [&life_fp](sim::SchedEvent event, const sim::Task& task, Tick now) {
        life_fp.Mix(static_cast<std::uint64_t>(event));
        life_fp.Mix(static_cast<std::uint64_t>(task.tid()));
        life_fp.Mix(static_cast<std::uint64_t>(now));
      });

  ThreadId next_tid = 1;
  std::vector<ThreadId> hogs;
  BuildSerialWorkload(engine, rng, seed, next_tid, hogs);
  engine.RunUntil(Sec(10));
  return Collect(engine, run_fp, life_fp);
}

// The identical seed stream through sim::ParallelEngine at workers == 1 (the
// serial-oracle path: periodic hooks and exit-hook churn are legal there).
TraceResult RunOnceParallelSerial(SchedKind kind, std::uint64_t seed) {
  common::Rng rng(seed);
  int num_cpus = 0;
  auto scheduler = DrawScheduler(kind, rng, &num_cpus);

  sim::ParallelEngineConfig engine_config;
  engine_config.workers = 1;
  engine_config.context_switch_cost = Usec(rng.UniformInt(0, 500));
  sim::ParallelEngine engine(*scheduler, engine_config);

  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook(
      [&run_fp](int /*worker*/, Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
        run_fp.Mix(static_cast<std::uint64_t>(start));
        run_fp.Mix(static_cast<std::uint64_t>(len));
        run_fp.Mix(static_cast<std::uint64_t>(cpu));
        run_fp.Mix(static_cast<std::uint64_t>(tid));
      });
  engine.SetSchedEventHook(
      [&life_fp](int /*worker*/, sim::SchedEvent event, const sim::Task& task, Tick now) {
        life_fp.Mix(static_cast<std::uint64_t>(event));
        life_fp.Mix(static_cast<std::uint64_t>(task.tid()));
        life_fp.Mix(static_cast<std::uint64_t>(now));
      });

  ThreadId next_tid = 1;
  std::vector<ThreadId> hogs;
  BuildSerialWorkload(engine, rng, seed, next_tid, hogs);
  engine.RunUntil(Sec(10));
  return Collect(engine, run_fp, life_fp);
}

std::uint64_t FuzzSeedCount() {
  if (const char* env = std::getenv("SFS_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::uint64_t>(parsed);
    }
  }
  return 6;
}

class EventQueueFuzzTest : public ::testing::TestWithParam<SchedKind> {};

// The binary-heap event queue is gone; its traces live on as kRecordedRuns.
// The wheel must reproduce every recorded field: both fingerprints, per-task
// services and the accounting counters.
TEST_P(EventQueueFuzzTest, WheelAndHeapTracesAreByteIdentical) {
  const std::uint64_t seeds = std::min(FuzzSeedCount(), kRecordedSeeds);
  std::uint64_t checked = 0;
  for (const RecordedRun& heap : kRecordedRuns) {
    if (heap.kind != GetParam() || heap.seed > seeds) {
      continue;
    }
    const TraceResult wheel = RunOnce(GetParam(), heap.seed, /*honor_env=*/false);
    EXPECT_EQ(wheel.run_fingerprint, heap.run_fingerprint) << "seed " << heap.seed;
    EXPECT_EQ(wheel.lifecycle_fingerprint, heap.lifecycle_fingerprint) << "seed " << heap.seed;
    EXPECT_EQ(ServicesFingerprint(wheel.services), heap.services_fingerprint)
        << "seed " << heap.seed;
    EXPECT_EQ(wheel.events, heap.events) << "seed " << heap.seed;
    EXPECT_EQ(wheel.dispatches, heap.dispatches) << "seed " << heap.seed;
    EXPECT_EQ(wheel.preemptions, heap.preemptions) << "seed " << heap.seed;
    EXPECT_EQ(wheel.idle, heap.idle) << "seed " << heap.seed;
    EXPECT_EQ(wheel.ctx_cost, heap.ctx_cost) << "seed " << heap.seed;
    ++checked;
  }
  EXPECT_EQ(checked, seeds);
}

TEST_P(EventQueueFuzzTest, ParallelEngineWorkersOneIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= FuzzSeedCount(); ++seed) {
    const TraceResult serial = RunOnce(GetParam(), seed);
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
  for (std::uint64_t seed = 1; seed <= FuzzSeedCount(); ++seed) {
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
                         [](const ::testing::TestParamInfo<SchedKind>& param_info) {
                           std::string name(sched::SchedKindName(param_info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace sfs::eval
