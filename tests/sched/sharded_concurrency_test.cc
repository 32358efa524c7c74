// Drives the Scheduler thread-safety contract (scheduler.h) with real threads
// at the scheduler level, without the executor on top: one dispatcher per CPU
// runs PickNext/Charge under LockDispatch — exercising cross-shard steals and
// rebalance pulls between concurrently dispatching shards — while a lifecycle
// thread mutates Block/Wakeup/SetWeight under LockLifecycle.  Invariants are
// checked single-threaded afterwards; the test's main value is under TSan
// (CI's tsan job), where any contract violation surfaces as a race.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::sched {
namespace {

// Force the lock-order validator on before any scheduler is constructed so
// the shard dispatch mutexes register their CPU-id ranks and every blessed
// acquisition below (LockLifecycle ascending, LockDispatch, descending
// try_lock steals) runs under validation — even in release builds where the
// validator defaults off.
[[maybe_unused]] const bool kValidatorOn = [] {
  common::lock_order::SetEnabled(true);
  return true;
}();

TEST(ShardedConcurrencyTest, ConcurrentDispatchersKeepStateConsistent) {
  SchedConfig config;
  config.num_cpus = 4;
  config.shard_steal = ShardStealPolicy::kMaxSurplus;
  config.shard_rebalance_period = 16;  // exercise rebalance pulls too
  config.shard_coupling = 1.0;
  Sharded<Sfs> scheduler(config);

  constexpr ThreadId kThreads = 16;
  {
    auto guard = scheduler.LockLifecycle();
    for (ThreadId tid = 0; tid < kThreads; ++tid) {
      scheduler.AddThread(tid, 1.0 + tid % 3);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> charged{0};

  std::vector<std::thread> dispatchers;
  for (CpuId cpu = 0; cpu < config.num_cpus; ++cpu) {
    dispatchers.emplace_back([&, cpu] {
      while (!stop.load()) {
        ThreadId tid;
        {
          auto guard = scheduler.LockDispatch(cpu);
          tid = scheduler.PickNext(cpu);
        }
        if (tid == kInvalidThread) {
          std::this_thread::yield();
          continue;
        }
        // "Run" a tiny quantum without holding any lock.
        const auto quantum_end = std::chrono::steady_clock::now() + std::chrono::microseconds(5);
        while (std::chrono::steady_clock::now() < quantum_end) {
        }
        {
          auto guard = scheduler.LockDispatch(cpu);
          scheduler.Charge(tid, 100);
        }
        charged.fetch_add(100);
      }
    });
  }

  // Lifecycle churn: block/wake the upper half, change the lower half's
  // weights.  Block requires runnable-and-not-running, checked under the same
  // exclusive lock that performs it.
  int blocked_now = 0;
  std::thread lifecycle([&] {
    bool blocked[kThreads] = {};
    for (int round = 0; round < 400; ++round) {
      const ThreadId tid = 8 + (round % 8);
      {
        auto guard = scheduler.LockLifecycle();
        if (blocked[tid]) {
          scheduler.Wakeup(tid);
          blocked[tid] = false;
        } else if (scheduler.IsRunnable(tid) && !scheduler.IsRunning(tid)) {
          scheduler.Block(tid);
          blocked[tid] = true;
        }
        scheduler.SetWeight(round % 8, 1.0 + round % 5);
      }
      std::this_thread::yield();
    }
    auto guard = scheduler.LockLifecycle();
    for (ThreadId tid = 8; tid < kThreads; ++tid) {
      if (blocked[tid]) {
        ++blocked_now;  // left blocked; woken below before the invariant check
      }
    }
  });

  lifecycle.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& d : dispatchers) {
    d.join();
  }

  // Single-threaded from here on.  Wake every thread the churn left blocked.
  for (ThreadId tid = 8; tid < kThreads; ++tid) {
    if (scheduler.Contains(tid) && !scheduler.IsRunnable(tid)) {
      scheduler.Wakeup(tid);
      --blocked_now;
    }
  }
  EXPECT_EQ(blocked_now, 0);
  EXPECT_EQ(scheduler.thread_count(), kThreads);
  EXPECT_EQ(scheduler.runnable_count(), kThreads);

  // Accounting survived the concurrency: every charged tick landed on exactly
  // one thread.
  std::int64_t total_service = 0;
  for (ThreadId tid = 0; tid < kThreads; ++tid) {
    total_service += scheduler.TotalService(tid);
  }
  EXPECT_EQ(total_service, charged.load());

  // Shard bookkeeping is consistent: per-shard runnable weight equals the sum
  // of the weights homed there, and every thread has a valid home.
  std::vector<double> expected(static_cast<std::size_t>(config.num_cpus), 0.0);
  for (ThreadId tid = 0; tid < kThreads; ++tid) {
    const CpuId home = scheduler.ShardOf(tid);
    ASSERT_GE(home, 0);
    ASSERT_LT(home, config.num_cpus);
    expected[static_cast<std::size_t>(home)] += scheduler.GetWeight(tid);
  }
  const std::vector<double> weights = scheduler.ShardRunnableWeights();
  for (std::size_t shard = 0; shard < weights.size(); ++shard) {
    EXPECT_NEAR(weights[shard], expected[shard], 1e-6) << "shard " << shard;
  }

  // And the scheduler still dispatches correctly single-threaded.
  const ThreadId tid = scheduler.PickNext(0);
  ASSERT_NE(tid, kInvalidThread);
  scheduler.Charge(tid, 10);
}

TEST(ShardedConcurrencyTest, HomeShardWakeupsKeepCountsExact) {
  // The sanctioned relaxation alone: one thread per home shard blocks and
  // wakes that shard's threads under LockDispatch(home), so the host's
  // Block/Wakeup run concurrently under different shards' mutexes, while a
  // poller reads the counters lock-free.  Every count must come out exact.
  SchedConfig config;
  config.num_cpus = 4;
  config.shard_steal = ShardStealPolicy::kMaxSurplus;
  Sharded<Sfs> scheduler(config);
  constexpr ThreadId kThreads = 32;
  {
    auto guard = scheduler.LockLifecycle();
    for (ThreadId tid = 0; tid < kThreads; ++tid) {
      scheduler.AddThread(tid, 1.0 + tid % 3, /*home=*/tid % config.num_cpus);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> counts_in_range{true};
  std::thread poller([&] {
    while (!stop.load()) {
      const int runnable = scheduler.runnable_count();
      if (runnable < 0 || runnable > kThreads || scheduler.steals() != 0) {
        counts_in_range.store(false);
      }
      std::this_thread::yield();
    }
  });
  // Round r toggles the shard's (r % 8)-th thread: the first four threads
  // end toggled 25,001 times (blocked), the last four 25,000 times.  A lost
  // update of the host's count needs two home threads inside it at once, so
  // they start together and run long enough to overlap.
  constexpr int kRounds = 8 * 25'000 + 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> homes;
  for (CpuId cpu = 0; cpu < config.num_cpus; ++cpu) {
    homes.emplace_back([&, cpu] {
      ready.fetch_add(1);
      while (ready.load() < config.num_cpus) {
      }
      for (int round = 0; round < kRounds; ++round) {
        const ThreadId tid = cpu + config.num_cpus * (round % (kThreads / config.num_cpus));
        auto guard = scheduler.LockDispatch(cpu);
        if (scheduler.IsRunnable(tid)) {
          scheduler.Block(tid);
        } else {
          scheduler.Wakeup(tid);
        }
      }
    });
  }
  for (auto& home : homes) {
    home.join();
  }
  stop.store(true);
  poller.join();
  EXPECT_TRUE(counts_in_range.load());

  // Single-threaded from here on: recompute the runnable set.
  int runnable = 0;
  std::vector<int> per_shard(static_cast<std::size_t>(config.num_cpus), 0);
  for (ThreadId tid = 0; tid < kThreads; ++tid) {
    ASSERT_EQ(scheduler.ShardOf(tid), tid % config.num_cpus);
    if (scheduler.IsRunnable(tid)) {
      ++runnable;
      ++per_shard[static_cast<std::size_t>(tid % config.num_cpus)];
    }
  }
  EXPECT_EQ(runnable, kThreads / 2);
  EXPECT_EQ(scheduler.runnable_count(), runnable);
  for (CpuId cpu = 0; cpu < config.num_cpus; ++cpu) {
    EXPECT_EQ(scheduler.shard(cpu).runnable_count(), per_shard[static_cast<std::size_t>(cpu)])
        << "shard " << cpu;
  }
  EXPECT_EQ(scheduler.steals(), 0);
  EXPECT_EQ(scheduler.CheckInvariants(), "");
}

TEST(ShardedConcurrencyTest, FlatSchedulerSerializesDispatchUnderOneMutex) {
  // The base-class half of the contract: flat policies hand every CPU the same
  // dispatch mutex, so two dispatchers' critical sections never overlap.
  SchedConfig config;
  config.num_cpus = 2;
  Sfs scheduler(config);
  {
    auto guard = scheduler.LockLifecycle();
    for (ThreadId tid = 0; tid < 6; ++tid) {
      scheduler.AddThread(tid, 1.0);
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<int> in_critical{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> dispatchers;
  for (CpuId cpu = 0; cpu < 2; ++cpu) {
    dispatchers.emplace_back([&, cpu] {
      while (!stop.load()) {
        auto guard = scheduler.LockDispatch(cpu);
        if (in_critical.fetch_add(1) != 0) {
          overlapped.store(true);
        }
        const ThreadId tid = scheduler.PickNext(cpu);
        if (tid != kInvalidThread) {
          scheduler.Charge(tid, 50);
        }
        in_critical.fetch_sub(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& d : dispatchers) {
    d.join();
  }
  EXPECT_FALSE(overlapped.load());
}

}  // namespace
}  // namespace sfs::sched
