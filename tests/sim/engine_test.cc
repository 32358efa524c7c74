// Unit tests for the discrete-event SMP engine.

#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/workload/workloads.h"

namespace sfs::sim {
namespace {

using sched::SchedConfig;

SchedConfig Config(int cpus, Tick quantum = kDefaultQuantum) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  return config;
}

TEST(EngineTest, SingleComputeTaskGetsWholeCpu) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "t"));
  engine.RunUntil(Sec(1));
  EXPECT_EQ(engine.ServiceIncludingRunning(1), Sec(1));
  EXPECT_EQ(engine.idle_time(), 0);
}

TEST(EngineTest, TwoTasksOneCpuSplitEvenly) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(10));
  EXPECT_NEAR(static_cast<double>(engine.ServiceIncludingRunning(1)),
              static_cast<double>(engine.ServiceIncludingRunning(2)),
              static_cast<double>(kDefaultQuantum));
}

TEST(EngineTest, TwoCpusRunTwoTasksInParallel) {
  sched::Sfs scheduler(Config(2));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(1));
  EXPECT_EQ(engine.ServiceIncludingRunning(1), Sec(1));
  EXPECT_EQ(engine.ServiceIncludingRunning(2), Sec(1));
}

TEST(EngineTest, LateArrivalStartsOnTime) {
  sched::Sfs scheduler(Config(2));
  Engine engine(scheduler);
  engine.AddTaskAt(Sec(1), workload::MakeInf(1, 1.0, "late"));
  engine.RunUntil(Sec(2));
  EXPECT_EQ(engine.ServiceIncludingRunning(1), Sec(1));
  EXPECT_EQ(engine.idle_time(), 3 * Sec(1));  // both CPUs idle 1s + one idle 1s
}

TEST(EngineTest, FixedWorkTaskExitsAfterConsumingBudget) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeFixedWork(1, 1.0, Msec(300), "short"));
  int exits = 0;
  engine.SetExitHook([&exits](Engine&, Task& task) {
    ++exits;
    EXPECT_EQ(task.service(), Msec(300));
  });
  engine.RunUntil(Sec(1));
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(engine.task(1).state(), Task::State::kExited);
  EXPECT_EQ(engine.Service(1), Msec(300));
}

TEST(EngineTest, QuantumSlicesLongBurst) {
  // One CPU, two tasks: dispatch counts show quantum-granular interleaving.
  sched::Sfs scheduler(Config(1, Msec(100)));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(1));
  // 10 quanta of 100 ms over 1 s.
  EXPECT_GE(engine.dispatches(), 10);
  EXPECT_LE(engine.dispatches(), 12);
}

TEST(EngineTest, BlockingTaskYieldsCpu) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  common::SampleSet responses;
  workload::Interact::Params params;
  params.mean_think = Msec(50);
  params.burst = Msec(5);
  engine.AddTaskAt(0, workload::MakeInteract(1, 1.0, params, &responses, "i"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "bg"));
  engine.RunUntil(Sec(10));
  // The interactive task used far less CPU than the hog but did get service.
  EXPECT_GT(engine.Service(1), 0);
  EXPECT_LT(engine.Service(1), Sec(2));
  EXPECT_GT(engine.ServiceIncludingRunning(2), Sec(7));
  EXPECT_GT(responses.count(), 50u);
}

TEST(EngineTest, WorkConservation) {
  // Total service + idle == capacity, with context switches free by default.
  sched::Sfs scheduler(Config(2));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.AddTaskAt(0, workload::MakeInf(3, 1.0, "c"));
  engine.RunUntil(Sec(5));
  const Tick total = engine.ServiceIncludingRunning(1) + engine.ServiceIncludingRunning(2) +
                     engine.ServiceIncludingRunning(3);
  EXPECT_EQ(total + engine.idle_time(), 2 * Sec(5));
  EXPECT_EQ(engine.idle_time(), 0);
}

TEST(EngineTest, ContextSwitchCostConsumesCapacity) {
  EngineConfig config;
  config.context_switch_cost = Msec(1);
  sched::Sfs scheduler(Config(1, Msec(100)));
  Engine engine(scheduler, config);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(1));
  const Tick total = engine.ServiceIncludingRunning(1) + engine.ServiceIncludingRunning(2);
  EXPECT_GT(engine.total_context_switch_cost(), 0);
  EXPECT_EQ(total + engine.total_context_switch_cost() + engine.idle_time(), Sec(1));
}

TEST(EngineTest, KillRunningTask) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(1));
  engine.KillTask(1);
  EXPECT_EQ(engine.task(1).state(), Task::State::kExited);
  const Tick before = engine.Service(2);
  engine.RunUntil(Sec(2));
  // Task 2 now owns the whole CPU.
  EXPECT_EQ(engine.ServiceIncludingRunning(2) - before, Sec(1));
}

TEST(EngineTest, KillRunningTaskOnShardedSchedulerStealsToRefill) {
  // Three equal hogs on 2 sharded CPUs: threads 1 and 3 share shard 0, thread
  // 2 owns shard 1.  Killing thread 2 *while it is running* must charge it,
  // remove it, and refill CPU 1 by stealing from shard 0 — the kill lands on a
  // currently-running thread and the refill crosses shards.
  sched::Sharded<sched::Sfs> scheduler(Config(2));
  Engine engine(scheduler);
  for (sched::ThreadId tid = 1; tid <= 3; ++tid) {
    engine.AddTaskAt(0, workload::MakeInf(tid, 1.0, "hog"));
  }
  engine.RunUntil(Sec(1));
  ASSERT_EQ(engine.task(2).state(), Task::State::kRunning);
  ASSERT_EQ(engine.steals(), 0);  // both shards were self-sufficient so far
  engine.KillTask(2);
  EXPECT_EQ(engine.task(2).state(), Task::State::kExited);
  EXPECT_EQ(engine.steals(), 1);  // the freed CPU pulled from shard 0
  EXPECT_EQ(scheduler.steals(), 1);
  const Tick before_1 = engine.ServiceIncludingRunning(1);
  const Tick before_3 = engine.ServiceIncludingRunning(3);
  engine.RunUntil(Sec(2));
  // Two survivors, two CPUs: each owns one from here on, no idling.
  EXPECT_EQ(engine.ServiceIncludingRunning(1) - before_1, Sec(1));
  EXPECT_EQ(engine.ServiceIncludingRunning(3) - before_3, Sec(1));
  EXPECT_EQ(engine.idle_time(), 0);
}

// 256 hogs homed one per shard, plus a second hog on shard 255: the running
// task both lookups must find sits on the last CPU, where a scan over the
// processors would look last.
TEST(EngineTest, RunningTaskOnLastOfManyCpus) {
  constexpr int kCpus = 256;
  sched::Sharded<sched::Sfs> scheduler(Config(kCpus));
  Engine engine(scheduler);
  for (sched::ThreadId tid = 0; tid <= kCpus; ++tid) {
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

TEST(EngineTest, KillBlockedTaskIgnoresStaleWakeup) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  common::SampleSet responses;
  workload::Interact::Params params;
  params.mean_think = Msec(100);
  engine.AddTaskAt(0, workload::MakeInteract(1, 1.0, params, &responses, "i"));
  engine.RunUntil(Msec(10));  // it is blocked (thinking) now
  ASSERT_EQ(engine.task(1).state(), Task::State::kBlocked);
  engine.KillTask(1);
  EXPECT_EQ(engine.task(1).state(), Task::State::kExited);
  engine.RunUntil(Sec(1));  // the queued wakeup must be ignored without crashing
}

TEST(EngineTest, KillTaskBeforeArrival) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  engine.AddTaskAt(Sec(1), workload::MakeInf(1, 1.0, "late"));
  engine.KillTask(1);
  engine.RunUntil(Sec(2));
  EXPECT_EQ(engine.Service(1), 0);
}

TEST(EngineTest, PeriodicHookFiresAtPeriod) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  std::vector<Tick> fired;
  engine.AddPeriodicHook(Msec(250), [&fired](Engine& e) { fired.push_back(e.now()); });
  engine.RunUntil(Sec(1));
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], Msec(250));
  EXPECT_EQ(fired[3], Msec(1000));
}

TEST(EngineTest, ExitHookChainsNewTasks) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  sched::ThreadId next_tid = 2;
  engine.SetExitHook([&next_tid](Engine& e, Task& task) {
    if (task.label() == "chain" && next_tid <= 4) {
      e.AddTaskAt(e.now(), workload::MakeFixedWork(next_tid++, 1.0, Msec(100), "chain"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(1, 1.0, Msec(100), "chain"));
  engine.RunUntil(Sec(1));
  // Tasks 1..4 each ran 100 ms back to back.
  EXPECT_EQ(engine.Service(1), Msec(100));
  EXPECT_EQ(engine.Service(4), Msec(100));
}

TEST(EngineTest, SchedEventHookSeesLifecycle) {
  sched::Sfs scheduler(Config(1));
  Engine engine(scheduler);
  int arrivals = 0;
  int departures = 0;
  int blocks = 0;
  int wakeups = 0;
  engine.SetSchedEventHook([&](SchedEvent event, const Task&, Tick) {
    switch (event) {
      case SchedEvent::kArrival:
        ++arrivals;
        break;
      case SchedEvent::kDeparture:
        ++departures;
        break;
      case SchedEvent::kBlock:
        ++blocks;
        break;
      case SchedEvent::kWakeup:
        ++wakeups;
        break;
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(1, 1.0, Msec(50), "w"));
  common::SampleSet responses;
  workload::Interact::Params params;
  engine.AddTaskAt(0, workload::MakeInteract(2, 1.0, params, &responses, "i"));
  engine.RunUntil(Sec(2));
  EXPECT_EQ(arrivals, 2);
  EXPECT_EQ(departures, 1);
  EXPECT_GT(blocks, 2);
  EXPECT_GT(wakeups, 2);
}

TEST(EngineTest, WakeupPreemptsLongRunner) {
  // SFS suggests preemption for a woken zero-surplus thread against a runner
  // deep into its quantum.
  sched::Sfs scheduler(Config(1, Msec(200)));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "hog"));
  common::SampleSet responses;
  workload::Interact::Params params;
  params.mean_think = Msec(70);
  params.burst = Msec(2);
  params.seed = 3;
  engine.AddTaskAt(0, workload::MakeInteract(2, 1.0, params, &responses, "i"));
  engine.RunUntil(Sec(20));
  EXPECT_GT(engine.preemptions(), 10);
  // Mean response far below the 200 ms quantum thanks to wakeup preemption.
  EXPECT_LT(responses.mean(), 30.0);
}

TEST(EngineTest, CacheRestoreCostChargedOnColdDispatch) {
  EngineConfig config;
  config.cache_restore_per_kb = Usec(10);
  sched::Sfs scheduler(Config(1, Msec(100)));
  Engine engine(scheduler, config);
  auto a = workload::MakeInf(1, 1.0, "a");
  a->set_working_set_kb(64);
  auto b = workload::MakeInf(2, 1.0, "b");
  b->set_working_set_kb(64);
  engine.AddTaskAt(0, std::move(a));
  engine.AddTaskAt(0, std::move(b));
  engine.RunUntil(Sec(1));
  // Alternating tasks on one CPU: every dispatch after the first is a switch;
  // same-CPU returns cost half of 640us each.
  EXPECT_GT(engine.total_context_switch_cost(), 0);
  const Tick total = engine.ServiceIncludingRunning(1) + engine.ServiceIncludingRunning(2);
  EXPECT_EQ(total + engine.total_context_switch_cost() + engine.idle_time(), Sec(1));
}

TEST(EngineTest, BackToBackRedispatchIsFree) {
  EngineConfig config;
  config.context_switch_cost = Msec(1);
  config.cache_restore_per_kb = Usec(10);
  sched::Sfs scheduler(Config(1, Msec(100)));
  Engine engine(scheduler, config);
  auto solo = workload::MakeInf(1, 1.0, "solo");
  solo->set_working_set_kb(64);
  engine.AddTaskAt(0, std::move(solo));
  engine.RunUntil(Sec(1));
  // One cold start (1ms admin + 64KB * 10us cache fill), then re-picked at each
  // quantum boundary with no competitor: no further switch cost.
  EXPECT_EQ(engine.total_context_switch_cost(), Msec(1) + Usec(640));
  EXPECT_EQ(engine.ServiceIncludingRunning(1), Sec(1) - Msec(1) - Usec(640));
}

TEST(EngineTest, ArrivalPreemptionKnob) {
  // Arrivals take the same preemption check as wakeups (Linux 2.2 calls
  // reschedule_idle() for forked children too).  No task here ever blocks, so
  // every preemption is an arrival's.
  sched::Sfs scheduler(Config(1, Msec(200)));
  Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "hog"));
  // A stream of arrivals mid-quantum.
  for (sched::ThreadId tid = 2; tid <= 11; ++tid) {
    engine.AddTaskAt(Msec(100) * (tid - 1) + Msec(50),
                     workload::MakeFixedWork(tid, 1.0, Msec(20), "short"));
  }
  engine.RunUntil(Sec(3));
  EXPECT_GT(engine.preemptions(), 0);
}

TEST(EngineTest, MigrationsCountedAcrossCpus) {
  sched::Sfs scheduler(Config(2, Msec(50)));
  Engine engine(scheduler);
  for (sched::ThreadId tid = 1; tid <= 5; ++tid) {
    engine.AddTaskAt(0, workload::MakeInf(tid, static_cast<double>(tid), "t"));
  }
  engine.RunUntil(Sec(10));
  EXPECT_GT(engine.migrations(), 0);
}

TEST(EngineTest, DeterministicReplay) {
  auto run = [] {
    sched::Sfs scheduler(Config(2));
    Engine engine(scheduler);
    for (sched::ThreadId tid = 1; tid <= 5; ++tid) {
      workload::CompileJob::Params params;
      params.seed = static_cast<std::uint64_t>(tid);
      engine.AddTaskAt(0, workload::MakeCompileJob(tid, 1.0, params, "gcc"));
    }
    engine.RunUntil(Sec(30));
    std::vector<Tick> services;
    for (sched::ThreadId tid = 1; tid <= 5; ++tid) {
      services.push_back(engine.ServiceIncludingRunning(tid));
    }
    return services;
  };
  EXPECT_EQ(run(), run());
}

// The tid->slot index auto-grows geometrically: a monotone stream of fresh
// tids without ReserveTasks (exit-hook churn is exactly this shape) must stay
// linear, and sparse out-of-order tids must resolve correctly after growth.
TEST(EngineTest, SparseTidsAutoGrowWithoutReserve) {
  sched::Sfs scheduler(Config(2));
  Engine engine(scheduler);
  const sched::ThreadId tids[] = {4096, 1, 70000, 9, 300};
  for (const sched::ThreadId tid : tids) {
    engine.AddTaskAt(0, workload::MakeInf(tid, 1.0, "t"));
  }
  engine.RunUntil(Sec(1));
  Tick total = 0;
  for (const sched::ThreadId tid : tids) {
    ASSERT_TRUE(engine.HasTask(tid));
    total += engine.ServiceIncludingRunning(tid);
  }
  EXPECT_EQ(total, 2 * Sec(1));
}

}  // namespace
}  // namespace sfs::sim
