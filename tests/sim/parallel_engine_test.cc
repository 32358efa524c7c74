// Unit tests for the parallel sharded simulation engine.
//
// Three contracts under test (parallel_engine.h):
//   * workers == 1 reproduces sim::Engine byte-identically — run-interval
//     stream, lifecycle stream, per-task services, every counter — for flat
//     and sharded policies alike.
//   * workers > 1 over a *partitioned* sharded policy reproduces the serial
//     oracle's per-CPU / per-home streams byte-identically at any worker
//     count, and is deterministic across reruns.
//   * workers > 1 in general (hintless tasks, mailboxes in play) preserves
//     the conservation invariants: arrivals == departures + live, and every
//     dispatch is eventually charged (tasks still on-CPU at the horizon
//     excepted).
//
// The stress cases double as the TSan targets for the engine (ctest -R
// ParallelEngine under the sanitizer job).

#include "src/sim/parallel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"
#include "tests/sched_kind_param_name.h"

namespace sfs::sim {
namespace {

using sched::SchedKind;
using sched::ThreadId;

struct RunResult {
  std::uint64_t run_fingerprint = 0;
  std::uint64_t lifecycle_fingerprint = 0;
  std::vector<Tick> services;
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  std::int64_t mailed = 0;
  Tick idle = 0;
  Tick ctx_cost = 0;

  bool operator==(const RunResult&) const = default;
};

constexpr int kCpus = 4;
constexpr Tick kHorizon = Sec(5);

sched::SchedConfig TestConfig(int cpus) {
  sched::SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = Msec(20);
  return config;
}

// The shared workload: hogs with mixed weights, interactive sleepers (arrive
// asleep — the wakeup path), and a churning short-job chain through the exit
// hook (serial paths only).  `hint` pins task tid to shard tid % cpus.
template <typename EngineT>
void AddWorkload(EngineT& engine, int cpus, bool hint, bool churn) {
  ThreadId next_tid = 1;
  auto add = [&engine, cpus, hint](Tick at, std::unique_ptr<Task> task) {
    if (hint) {
      task->set_home_cpu(static_cast<sched::CpuId>(task->tid() % cpus));
    }
    engine.AddTaskAt(at, std::move(task));
  };
  for (int i = 0; i < 3; ++i) {
    add(Msec(100 * i), workload::MakeInf(next_tid++, 1.0 + 3.0 * i, "hog"));
  }
  for (int i = 0; i < 6; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(20 + 30 * i);
    params.burst = Msec(1 + i);
    params.seed = 7u + static_cast<std::uint64_t>(i);
    add(Msec(50 * i), workload::MakeInteract(next_tid++, 1.0 + i, params, nullptr, "sleeper"));
  }
  add(0, workload::MakeFixedWork(next_tid++, 2.0, Msec(80), "short"));
  if (churn) {
    engine.SetExitHook([next_tid](EngineT& e, Task& task) mutable {
      if (task.label() == "short" && next_tid < 40) {
        e.AddTaskAt(e.now() + Msec(17),
                    workload::MakeFixedWork(next_tid++, 2.0, Msec(80), "short"));
      }
    });
  }
}

RunResult RunSerial(SchedKind kind, bool hint) {
  auto scheduler = CreateScheduler(kind, TestConfig(kCpus));
  EngineConfig config;
  config.context_switch_cost = Usec(50);
  Engine engine(*scheduler, config);
  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook([&run_fp](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
    run_fp.MixRun(start, len, cpu, tid);
  });
  engine.SetSchedEventHook([&life_fp](SchedEvent event, const Task& task, Tick now) {
    life_fp.MixEvent(event, task.tid(), now);
  });
  AddWorkload(engine, kCpus, hint, /*churn=*/true);
  engine.RunUntil(kHorizon);

  RunResult result;
  engine.ForEachTask([&](const Task& task) { result.services.push_back(task.service()); });
  std::sort(result.services.begin(), result.services.end());
  result.run_fingerprint = run_fp.value();
  result.lifecycle_fingerprint = life_fp.value();
  result.events = engine.events_processed();
  result.dispatches = engine.dispatches();
  result.preemptions = engine.preemptions();
  result.idle = engine.idle_time();
  result.ctx_cost = engine.total_context_switch_cost();
  return result;
}

RunResult RunParallel(SchedKind kind, int workers, bool hint, bool churn,
                      Tick epoch = Msec(10)) {
  auto scheduler = CreateScheduler(kind, TestConfig(kCpus));
  ParallelEngineConfig config;
  config.workers = workers;
  config.epoch = epoch;
  config.context_switch_cost = Usec(50);
  ParallelEngine engine(*scheduler, config);
  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook(
      [&run_fp](int /*worker*/, Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
        run_fp.MixRun(start, len, cpu, tid);
      });
  engine.SetSchedEventHook(
      [&life_fp](int /*worker*/, SchedEvent event, const Task& task, Tick now) {
        life_fp.MixEvent(event, task.tid(), now);
      });
  AddWorkload(engine, kCpus, hint, churn);
  engine.RunUntil(kHorizon);

  RunResult result;
  engine.ForEachTask([&](const Task& task) { result.services.push_back(task.service()); });
  std::sort(result.services.begin(), result.services.end());
  result.run_fingerprint = run_fp.value();
  result.lifecycle_fingerprint = life_fp.value();
  result.events = engine.events_processed();
  result.dispatches = engine.dispatches();
  result.preemptions = engine.preemptions();
  result.mailed = engine.mailed_wakeups();
  result.idle = engine.idle_time();
  result.ctx_cost = engine.total_context_switch_cost();
  return result;
}

// --- workers == 1: the serial-oracle contract --------------------------------

class ParallelEngineOracleTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(ParallelEngineOracleTest, WorkersOneIsByteIdenticalToEngine) {
  const RunResult serial = RunSerial(GetParam(), /*hint=*/false);
  const RunResult parallel = RunParallel(GetParam(), /*workers=*/1, /*hint=*/false,
                                         /*churn=*/true);
  EXPECT_EQ(serial.run_fingerprint, parallel.run_fingerprint);
  EXPECT_EQ(serial.lifecycle_fingerprint, parallel.lifecycle_fingerprint);
  EXPECT_EQ(serial.services, parallel.services);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.dispatches, parallel.dispatches);
  EXPECT_EQ(serial.preemptions, parallel.preemptions);
  EXPECT_EQ(serial.idle, parallel.idle);
  EXPECT_EQ(serial.ctx_cost, parallel.ctx_cost);
  EXPECT_EQ(parallel.mailed, 0);
}

TEST_P(ParallelEngineOracleTest, WorkersOneWithHintsIsByteIdenticalToEngine) {
  const RunResult serial = RunSerial(GetParam(), /*hint=*/true);
  const RunResult parallel = RunParallel(GetParam(), /*workers=*/1, /*hint=*/true,
                                         /*churn=*/true);
  EXPECT_EQ(serial.run_fingerprint, parallel.run_fingerprint);
  EXPECT_EQ(serial.lifecycle_fingerprint, parallel.lifecycle_fingerprint);
  EXPECT_EQ(serial.services, parallel.services);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ParallelEngineOracleTest,
    ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq, SchedKind::kWfq,
                      SchedKind::kTimeshare, SchedKind::kShardedSfs),
    SchedKindParamName);

// --- workers > 1, partitioned: exactness per shard group ---------------------

// Partitioned sharded-SFS: per-CPU run-interval streams and per-home-shard
// lifecycle streams must be byte-identical to the serial engine's at every
// worker count (per-CPU granularity is the finest grouping, so it covers any
// coarser worker split).
struct GroupedFingerprints {
  std::vector<std::uint64_t> per_cpu_run;
  std::vector<std::uint64_t> per_home_life;
  std::int64_t dispatches = 0;
  std::int64_t mailed = 0;

  bool operator==(const GroupedFingerprints&) const = default;
};

sched::SchedConfig PartitionedConfig(int cpus) {
  sched::SchedConfig config = TestConfig(cpus);
  config.shard_steal = sched::ShardStealPolicy::kNone;
  config.shard_rebalance_period = 0;
  config.shard_coupling = 0.0;
  return config;
}

GroupedFingerprints RunPartitioned(int workers, int cpus) {
  auto scheduler = CreateScheduler(SchedKind::kShardedSfs, PartitionedConfig(cpus));
  std::vector<common::Fnv1a> run_fps(static_cast<std::size_t>(cpus));
  std::vector<common::Fnv1a> life_fps(static_cast<std::size_t>(cpus));
  auto run_hooks = [&](auto& engine) {
    engine.RunUntil(kHorizon);
  };
  GroupedFingerprints result;
  if (workers == 0) {
    Engine engine(*scheduler);
    engine.SetRunIntervalHook([&run_fps](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
      common::Fnv1a& fp = run_fps[static_cast<std::size_t>(cpu)];
      fp.MixRun(start, len, cpu, tid);
    });
    engine.SetSchedEventHook([&life_fps, cpus](SchedEvent event, const Task& task, Tick now) {
      common::Fnv1a& fp = life_fps[static_cast<std::size_t>(task.tid() % cpus)];
      fp.MixEvent(event, task.tid(), now);
    });
    AddWorkload(engine, cpus, /*hint=*/true, /*churn=*/false);
    run_hooks(engine);
    result.dispatches = engine.dispatches();
  } else {
    ParallelEngineConfig config;
    config.workers = workers;
    config.epoch = Msec(10);
    ParallelEngine engine(*scheduler, config);
    engine.SetRunIntervalHook(
        [&run_fps](int /*worker*/, Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
          common::Fnv1a& fp = run_fps[static_cast<std::size_t>(cpu)];
          fp.MixRun(start, len, cpu, tid);
        });
    engine.SetSchedEventHook(
        [&life_fps, cpus](int /*worker*/, SchedEvent event, const Task& task, Tick now) {
          common::Fnv1a& fp = life_fps[static_cast<std::size_t>(task.tid() % cpus)];
          fp.MixEvent(event, task.tid(), now);
        });
    AddWorkload(engine, cpus, /*hint=*/true, /*churn=*/false);
    run_hooks(engine);
    result.dispatches = engine.dispatches();
    result.mailed = engine.mailed_wakeups();
  }
  for (const auto& fp : run_fps) {
    result.per_cpu_run.push_back(fp.value());
  }
  for (const auto& fp : life_fps) {
    result.per_home_life.push_back(fp.value());
  }
  return result;
}

TEST(ParallelEnginePartitionedTest, GroupStreamsMatchSerialOracleAtEveryWorkerCount) {
  const GroupedFingerprints oracle = RunPartitioned(/*workers=*/0, kCpus);
  for (const int workers : {1, 2, 4}) {
    GroupedFingerprints parallel = RunPartitioned(workers, kCpus);
    EXPECT_EQ(parallel.mailed, 0) << "partitioned runs must not mail";
    parallel.mailed = 0;
    EXPECT_EQ(parallel, oracle) << "workers=" << workers;
  }
}

TEST(ParallelEnginePartitionedTest, RerunsAreDeterministic) {
  const GroupedFingerprints first = RunPartitioned(/*workers=*/2, kCpus);
  const GroupedFingerprints second = RunPartitioned(/*workers=*/2, kCpus);
  EXPECT_EQ(first, second);
}

// --- workers > 1, unpartitioned: conservation + mailboxes --------------------

struct Conservation {
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
};

// Hintless sleepers on a sharded policy: arrivals round-robin across workers
// while the scheduler places by load, so arrive-asleep wakeups cross worker
// boundaries through the mailboxes.  Weights change and a task dies between
// RunUntil segments (quiescent surgery).  TSan target.
TEST(ParallelEngineStressTest, HintlessShardedRunConservesTasksAndExercisesMail) {
  auto scheduler = CreateScheduler(SchedKind::kShardedSfs, TestConfig(kCpus));
  ParallelEngineConfig config;
  config.workers = kCpus;
  config.epoch = Msec(5);
  ParallelEngine engine(*scheduler, config);

  std::vector<Conservation> per_worker(static_cast<std::size_t>(kCpus));
  engine.SetSchedEventHook(
      [&per_worker](int worker, SchedEvent event, const Task&, Tick) {
        if (event == SchedEvent::kArrival) {
          ++per_worker[static_cast<std::size_t>(worker)].arrivals;
        } else if (event == SchedEvent::kDeparture) {
          ++per_worker[static_cast<std::size_t>(worker)].departures;
        }
      });

  ThreadId next_tid = 1;
  for (int i = 0; i < 2; ++i) {
    engine.AddTaskAt(0, workload::MakeInf(next_tid++, 1.0 + i, "hog"));
  }
  for (int i = 0; i < 24; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(5 + 2 * i);
    params.burst = Usec(500 + 100 * i);
    params.seed = 31u + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(Msec(3 * i),
                     workload::MakeInteract(next_tid++, 1.0 + i % 5, params, nullptr, "sleeper"));
  }
  for (int i = 0; i < 8; ++i) {
    engine.AddTaskAt(Msec(40 * i),
                     workload::MakeFixedWork(next_tid++, 2.0, Msec(60), "short"));
  }
  const int total_tasks = static_cast<int>(next_tid) - 1;

  // Segmented run with quiescent surgery between segments.
  engine.RunUntil(Sec(1));
  engine.scheduler().SetWeight(1, 9.0);
  engine.RunUntil(Sec(2));
  if (engine.HasTask(2) && engine.task(2).state() != Task::State::kExited) {
    engine.KillTask(2);
  }
  engine.RunUntil(Sec(4));

  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  for (const Conservation& c : per_worker) {
    arrivals += c.arrivals;
    departures += c.departures;
  }
  std::int64_t live = 0;
  engine.ForEachTask([&live](const Task& task) {
    if (task.state() != Task::State::kNew && task.state() != Task::State::kExited) {
      ++live;
    }
  });
  EXPECT_EQ(arrivals, total_tasks);
  EXPECT_EQ(arrivals, departures + live);
  // Every dispatch is eventually charged as a run interval except tasks still
  // on-CPU at the horizon (at most one per simulated processor).
  EXPECT_GT(engine.dispatches(), 0);
  EXPECT_GT(engine.mailed_wakeups(), 0) << "hintless sharded run should cross workers";
  EXPECT_GT(engine.epochs(), 0);
}

// Flat SFS at workers > 1: a single global dispatch mutex serializes the
// scheduler, wakeups never mail, conservation still holds.  TSan target.
TEST(ParallelEngineStressTest, FlatPolicyManyWorkersConserves) {
  auto scheduler = CreateScheduler(SchedKind::kSfs, TestConfig(kCpus));
  ParallelEngineConfig config;
  config.workers = kCpus;
  config.epoch = Msec(5);
  ParallelEngine engine(*scheduler, config);

  std::vector<std::int64_t> arrivals(static_cast<std::size_t>(kCpus));
  std::vector<std::int64_t> departures(static_cast<std::size_t>(kCpus));
  engine.SetSchedEventHook(
      [&arrivals, &departures](int worker, SchedEvent event, const Task&, Tick) {
        if (event == SchedEvent::kArrival) {
          ++arrivals[static_cast<std::size_t>(worker)];
        } else if (event == SchedEvent::kDeparture) {
          ++departures[static_cast<std::size_t>(worker)];
        }
      });

  ThreadId next_tid = 1;
  for (int i = 0; i < 12; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(4 + i);
    params.burst = Msec(1);
    params.seed = 101u + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(Msec(i), workload::MakeInteract(next_tid++, 1.0, params, nullptr, "s"));
  }
  for (int i = 0; i < 6; ++i) {
    engine.AddTaskAt(Msec(30 * i),
                     workload::MakeFixedWork(next_tid++, 1.0, Msec(40), "short"));
  }
  const int total_tasks = static_cast<int>(next_tid) - 1;
  engine.RunUntil(Sec(3));

  std::int64_t arrived = 0;
  std::int64_t departed = 0;
  for (int w = 0; w < kCpus; ++w) {
    arrived += arrivals[static_cast<std::size_t>(w)];
    departed += departures[static_cast<std::size_t>(w)];
  }
  std::int64_t live = 0;
  engine.ForEachTask([&live](const Task& task) {
    if (task.state() != Task::State::kNew && task.state() != Task::State::kExited) {
      ++live;
    }
  });
  EXPECT_EQ(arrived, total_tasks);
  EXPECT_EQ(arrived, departed + live);
  EXPECT_EQ(engine.mailed_wakeups(), 0) << "flat policies keep every wakeup local";
}

// --- auto-grow ---------------------------------------------------------------

// 256 hogs homed one per shard, plus a second hog on shard 255: the running
// task both lookups must find sits on the last CPU, where a scan over the
// processors would look last.
TEST(ParallelEngineKillTest, RunningTaskOnLastOfManyCpus) {
  constexpr int kCpus = 256;
  sched::SchedConfig config = TestConfig(kCpus);
  config.quantum = Msec(200);  // one quantum spans the whole check
  auto scheduler = CreateScheduler(SchedKind::kShardedSfs, config);
  ParallelEngine engine(*scheduler);
  for (ThreadId tid = 0; tid <= kCpus; ++tid) {
    auto task = workload::MakeInf(tid, 1.0, "hog");
    task->set_home_cpu(std::min<sched::CpuId>(tid, kCpus - 1));
    engine.AddTaskAt(0, std::move(task));
  }
  engine.RunUntil(Msec(50));  // inside the first quantum
  // Thread 255 reached shard 255 first, so it runs there; thread 256 queues.
  ASSERT_EQ(engine.task(255).state(), Task::State::kRunning);
  ASSERT_EQ(engine.task(255).last_cpu(), kCpus - 1);
  ASSERT_EQ(engine.task(256).state(), Task::State::kRunnable);
  EXPECT_EQ(engine.Service(255), 0);
  EXPECT_EQ(engine.ServiceIncludingRunning(255), Msec(50));
  EXPECT_EQ(engine.ServiceIncludingRunning(0), Msec(50));
  EXPECT_EQ(engine.ServiceIncludingRunning(256), 0);

  engine.KillTask(255);
  EXPECT_EQ(engine.task(255).state(), Task::State::kExited);
  EXPECT_EQ(engine.Service(255), Msec(50));
  // The freed CPU refills from its own shard at once.
  EXPECT_EQ(engine.task(256).state(), Task::State::kRunning);
  EXPECT_EQ(engine.task(256).last_cpu(), kCpus - 1);
  engine.RunUntil(Msec(100));
  EXPECT_EQ(engine.ServiceIncludingRunning(256), Msec(50));
  EXPECT_EQ(engine.ServiceIncludingRunning(255), Msec(50));
  EXPECT_EQ(engine.idle_time(), 0);
}

// No ReserveTasks, sparse and out-of-order tids: the tid->slot index must
// auto-grow geometrically and stay correct.
TEST(ParallelEngineGrowthTest, SparseTidsWithoutReserve) {
  auto scheduler = CreateScheduler(SchedKind::kSfs, TestConfig(2));
  ParallelEngine engine(*scheduler);
  const ThreadId tids[] = {5000, 3, 1200, 77, 999999, 42};
  for (const ThreadId tid : tids) {
    engine.AddTaskAt(0, workload::MakeInf(tid, 1.0, "t"));
  }
  engine.RunUntil(Sec(1));
  Tick total = 0;
  for (const ThreadId tid : tids) {
    ASSERT_TRUE(engine.HasTask(tid));
    total += engine.ServiceIncludingRunning(tid);
  }
  EXPECT_EQ(total, 2 * Sec(1));  // 2 CPUs fully shared among the 6 tasks
}

}  // namespace
}  // namespace sfs::sim
