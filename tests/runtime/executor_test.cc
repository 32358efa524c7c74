// Tests for the real-thread user-level executor.  Timing assertions are loose:
// these run on shared CI hardware.

#include "src/runtime/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::runtime {
namespace {

sched::SchedConfig Config(int cpus) {
  sched::SchedConfig config;
  config.num_cpus = cpus;
  return config;
}

// Spins for roughly `us` microseconds of wall time.
void SpinFor(std::int64_t us) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(ExecutorTest, RunsAllTasksToCompletion) {
  sched::Sfs scheduler(Config(2));
  Executor::Config config;
  config.quantum = Msec(1);  // each ~5 ms task needs several dispatches
  Executor executor(scheduler, config);

  std::atomic<int> completed{0};
  for (sched::ThreadId tid = 1; tid <= 4; ++tid) {
    auto remaining = std::make_shared<std::atomic<int>>(50);
    executor.AddTask(tid, 1.0, [remaining, &completed] {
      SpinFor(100);
      if (remaining->fetch_sub(1) == 1) {
        completed.fetch_add(1);
        return false;
      }
      return true;
    });
  }
  executor.Run(Sec(30));
  EXPECT_EQ(completed.load(), 4);
  EXPECT_GT(executor.dispatches(), 4);
}

TEST(ExecutorTest, CpuTimeAccountedPerTask) {
  sched::Sfs scheduler(Config(1));
  Executor::Config config;
  config.quantum = Msec(5);
  Executor executor(scheduler, config);
  executor.AddTask(1, 1.0, [] {
    SpinFor(100);
    return true;  // runs until the wall limit
  });
  executor.Run(Msec(200));
  // The single task owned the single CPU for ~the whole run.
  EXPECT_GT(executor.CpuTime(1), Msec(100));
}

TEST(ExecutorTest, WallLimitStopsEndlessTasks) {
  sched::Sfs scheduler(Config(2));
  Executor::Config config;
  config.quantum = Msec(5);
  Executor executor(scheduler, config);
  for (sched::ThreadId tid = 1; tid <= 3; ++tid) {
    executor.AddTask(tid, 1.0, [] {
      SpinFor(50);
      return true;
    });
  }
  const Tick wall = executor.Run(Msec(300));
  EXPECT_LT(wall, Sec(5));  // returned promptly after the limit
}

TEST(ExecutorTest, ProportionalSharesRoughlyHold) {
  // Weight 3 vs 1 on one "CPU": the heavy task should get clearly more time.
  // Loose 2x bound — CI schedulers add noise.
  sched::Sfs scheduler(Config(1));
  Executor::Config config;
  config.quantum = Msec(2);
  Executor executor(scheduler, config);
  executor.AddTask(1, 3.0, [] {
    SpinFor(50);
    return true;
  });
  executor.AddTask(2, 1.0, [] {
    SpinFor(50);
    return true;
  });
  executor.Run(Msec(500));
  const double ratio = static_cast<double>(executor.CpuTime(1)) /
                       static_cast<double>(std::max<Tick>(1, executor.CpuTime(2)));
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 6.0);
}

TEST(ExecutorTest, BlockingTaskRoundTrips) {
  sched::Sfs scheduler(Config(1));
  Executor::Config config;
  config.quantum = Msec(2);
  Executor executor(scheduler, config);

  // A task that alternates compute and simulated I/O, next to a CPU hog: every
  // round needs a Block, a timed Wakeup, and a re-dispatch against the hog.
  constexpr int kRounds = 10;
  auto rounds_left = std::make_shared<std::atomic<int>>(kRounds);
  std::atomic<bool> io_task_done{false};
  executor.AddTask(1, 1.0, [rounds_left, &io_task_done]() -> Executor::WorkResult {
    SpinFor(100);
    if (rounds_left->fetch_sub(1) == 1) {
      io_task_done.store(true);
      return Executor::WorkResult::Done();
    }
    return Executor::WorkResult::Block(Msec(2));
  });
  executor.AddTask(2, 1.0, [] {
    SpinFor(50);
    return true;
  });

  executor.Run(Msec(500));
  EXPECT_TRUE(io_task_done.load());
  EXPECT_GE(executor.wakeups(), kRounds - 1);
  EXPECT_GT(executor.CpuTime(2), executor.CpuTime(1));  // the hog kept the CPU
}

TEST(ExecutorTest, WakeupRedispatchesIdleCpus) {
  // Work conservation: while the only task sleeps, every CPU goes idle; each
  // wakeup must re-dispatch an idle CPU (no CPU ever produces a report of its
  // own to trigger one).  A non-work-conserving executor leaves the task
  // parked until the wall limit.
  sched::Sfs scheduler(Config(2));
  Executor::Config config;
  config.quantum = Msec(5);
  Executor executor(scheduler, config);

  constexpr int kRounds = 5;
  auto rounds_left = std::make_shared<std::atomic<int>>(kRounds);
  std::atomic<bool> done{false};
  executor.AddTask(7, 1.0, [rounds_left, &done]() -> Executor::WorkResult {
    SpinFor(200);
    if (rounds_left->fetch_sub(1) == 1) {
      done.store(true);
      return Executor::WorkResult::Done();
    }
    return Executor::WorkResult::Block(Msec(5));
  });

  const Tick wall = executor.Run(Sec(10));
  EXPECT_TRUE(done.load());
  EXPECT_LT(wall, Sec(8));  // finished long before the limit, not parked
}

TEST(ExecutorTest, WindDownDrainsInFlightSlices) {
  // The wall limit expires while every CPU has a granted worker mid-quantum;
  // wind-down must preempt them, drain the final reports, and charge the
  // in-flight slices so CPU-time accounting stays complete.
  sched::Sfs scheduler(Config(2));
  Executor::Config config;
  config.quantum = Msec(50);  // quantum >> wall limit: reports still in flight
  Executor executor(scheduler, config);
  for (sched::ThreadId tid = 1; tid <= 3; ++tid) {
    executor.AddTask(tid, 1.0, [] {
      SpinFor(100);
      return true;
    });
  }
  const Tick wall = executor.Run(Msec(100));
  EXPECT_LT(wall, Sec(2));
  Tick total = 0;
  for (sched::ThreadId tid = 1; tid <= 3; ++tid) {
    total += executor.CpuTime(tid);
  }
  // Both CPUs were busy essentially the whole run; the drained final slices
  // account for most of 2 x 100 ms.
  EXPECT_GT(total, Msec(100));
}

TEST(ExecutorTest, MultiDispatcherStressSharded) {
  // Four dispatchers drive four SFS shards concurrently: spinners to keep
  // shards busy, blockers to exercise Block/Wakeup and idle-pull stealing,
  // and finite tasks to exercise exit during dispatch.  Run under TSan in CI.
  sched::SchedConfig config = Config(4);
  sched::Sharded<sched::Sfs> scheduler(config);
  Executor::Config exec_config;
  exec_config.quantum = Msec(1);
  Executor executor(scheduler, exec_config);

  std::atomic<int> finished{0};
  for (sched::ThreadId tid = 0; tid < 4; ++tid) {  // spinners
    executor.AddTask(tid, 1.0 + tid, [] {
      SpinFor(30);
      return true;
    });
  }
  for (sched::ThreadId tid = 4; tid < 8; ++tid) {  // blockers
    executor.AddTask(tid, 2.0, [tid]() -> Executor::WorkResult {
      SpinFor(50);
      return Executor::WorkResult::Block(Usec(500) * (1 + tid % 3));
    });
  }
  for (sched::ThreadId tid = 8; tid < 12; ++tid) {  // finite
    auto remaining = std::make_shared<std::atomic<int>>(40);
    executor.AddTask(tid, 1.0, [remaining, &finished]() -> Executor::WorkResult {
      SpinFor(40);
      if (remaining->fetch_sub(1) == 1) {
        finished.fetch_add(1);
        return Executor::WorkResult::Done();
      }
      return Executor::WorkResult::Continue();
    });
  }

  executor.Run(Msec(400));
  EXPECT_EQ(finished.load(), 4);
  EXPECT_GT(executor.dispatches(), 20);
  EXPECT_GT(executor.wakeups(), 0);
  Tick total = 0;
  for (sched::ThreadId tid = 0; tid < 12; ++tid) {
    total += executor.CpuTime(tid);
  }
  EXPECT_GT(total, Msec(50));
}

TEST(ExecutorTest, WeightedFairnessAcrossShards) {
  // Two dispatchers over two SFS shards; weight-balanced placement puts one
  // heavy and one light spinner on each shard, so per-shard proportional
  // sharing should produce a clear aggregate heavy:light CPU-time ratio.
  sched::SchedConfig config = Config(2);
  sched::Sharded<sched::Sfs> scheduler(config);
  Executor::Config exec_config;
  exec_config.quantum = Msec(2);
  Executor executor(scheduler, exec_config);
  const double weights[] = {3.0, 3.0, 1.0, 1.0};
  for (sched::ThreadId tid = 0; tid < 4; ++tid) {
    executor.AddTask(tid, weights[tid], [] {
      SpinFor(50);
      return true;
    });
  }
  executor.Run(Msec(600));
  const double heavy = static_cast<double>(executor.CpuTime(0) + executor.CpuTime(1));
  const double light =
      static_cast<double>(std::max<Tick>(1, executor.CpuTime(2) + executor.CpuTime(3)));
  EXPECT_GT(heavy / light, 1.5);
  EXPECT_LT(heavy / light, 6.0);
}

TEST(ExecutorTest, DispatchLatenciesRecorded) {
  sched::Sfs scheduler(Config(2));
  Executor::Config config;
  config.quantum = Msec(2);
  Executor executor(scheduler, config);
  for (sched::ThreadId tid = 1; tid <= 3; ++tid) {
    executor.AddTask(tid, 1.0, [] {
      SpinFor(30);
      return true;
    });
  }
  executor.Run(Msec(200));
  EXPECT_GT(executor.dispatch_latencies().count(), 10u);
  // A scheduling decision on an uncontended scheduler is far under a quantum
  // (latencies are nanoseconds; 10 ms here is a pathology bound, not a perf
  // assertion).
  EXPECT_LT(executor.dispatch_latencies().Percentile(50), 10'000'000.0);
  // The lock-wait component is sampled on every acquisition (including idle
  // picks), so it can only have more samples than the dispatch histogram.
  EXPECT_GE(executor.lock_wait_latencies().count(), executor.dispatch_latencies().count());
}

TEST(ExecutorTest, TracedMultiDispatcherStress) {
  // The MultiDispatcherStressSharded workload with a wall-clock obs::Trace
  // and a shared metrics registry attached: four dispatcher threads record
  // concurrently into their own rings, each applying its own wakeups, while
  // this thread snapshots the histograms mid-run.  Run under TSan in CI — this is the
  // data-race proof for the single-writer ring contract.  Ring capacity is
  // deliberately tiny so the wraparound path runs concurrently too.
  sched::SchedConfig config = Config(4);
  sched::Sharded<sched::Sfs> scheduler(config);
  obs::Trace trace(4, /*capacity_per_ring=*/256, obs::Trace::Clock::kWallNanos);
  obs::MetricsRegistry metrics(/*num_shards=*/4);
  Executor::Config exec_config;
  exec_config.quantum = Msec(1);
  exec_config.trace = &trace;
  exec_config.metrics = &metrics;
  Executor executor(scheduler, exec_config);

  for (sched::ThreadId tid = 0; tid < 4; ++tid) {  // spinners
    executor.AddTask(tid, 1.0 + tid, [] {
      SpinFor(30);
      return true;
    });
  }
  for (sched::ThreadId tid = 4; tid < 8; ++tid) {  // blockers
    executor.AddTask(tid, 2.0, [tid]() -> Executor::WorkResult {
      SpinFor(50);
      return Executor::WorkResult::Block(Usec(500) * (1 + tid % 3));
    });
  }

  // Snapshot the shared registry concurrently with the dispatchers.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)metrics.GetHistogram("exec/dispatch_latency_ns").Snapshot();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  executor.Run(Msec(400));
  stop.store(true);
  reader.join();

  EXPECT_EQ(&executor.metrics(), &metrics);
  EXPECT_GT(executor.dispatches(), 20);
  EXPECT_EQ(executor.dispatch_latencies().count(),
            static_cast<std::uint64_t>(executor.dispatches()));
  // Every dispatcher granted work, so every per-CPU ring saw records; the
  // lifecycle ring carries at least the eight arrivals and some block/wakeup
  // traffic.
  for (int cpu = 0; cpu < 4; ++cpu) {
    EXPECT_GT(trace.ring(cpu).size(), 0u) << "cpu " << cpu;
  }
  EXPECT_GE(trace.lifecycle_ring().appended(), 8u);
  // Targeted wake mode records wakeups in the applying dispatcher's own CPU
  // ring (single-writer discipline), so count across all rings.
  std::uint64_t wakeup_records = 0;
  std::uint64_t dropped = trace.lifecycle_ring().dropped();
  const auto count_wakeups = [&](const obs::TraceRecord& r) {
    wakeup_records += r.kind == obs::TraceEventKind::kWakeup ? 1 : 0;
  };
  trace.lifecycle_ring().ForEach(count_wakeups);
  for (int cpu = 0; cpu < 4; ++cpu) {
    trace.ring(cpu).ForEach(count_wakeups);
    dropped += trace.ring(cpu).dropped();
  }
  EXPECT_GT(wakeup_records + dropped, 0u);
}

TEST(ExecutorTest, PreemptLatenciesRecorded) {
  sched::Sfs scheduler(Config(1));
  Executor::Config config;
  config.quantum = Msec(2);
  Executor executor(scheduler, config);
  executor.AddTask(1, 1.0, [] {
    SpinFor(20);
    return true;
  });
  executor.AddTask(2, 1.0, [] {
    SpinFor(20);
    return true;
  });
  executor.Run(Msec(300));
  EXPECT_GT(executor.preempt_latencies().count(), 5u);
  // Cooperative yield happens within one work unit (~20 us), but under
  // parallel ctest on an oversubscribed host the preempted worker can sit
  // descheduled for tens of ms before observing the flag — bound the median
  // well below a quantum-scale pathology without asserting absolute speed.
  EXPECT_LT(executor.preempt_latencies().Percentile(50), 100000.0);
}

}  // namespace
}  // namespace sfs::runtime
