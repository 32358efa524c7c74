// Steal re-validation under migration churn: the TSan case for the rule in
// sharded.h that a holder of one shard's mutex never reads the shared entity
// table's slot of a thread that may have left that shard.
//
// A thief nominates a victim under the source shard's lock, releases it,
// finishes its scan, and re-locks the source to re-validate.  In between,
// another dispatcher may steal or rebalance the victim away, and a third may
// move it on between two *other* shards, rewriting its slot under locks the
// first thief never takes.  Re-validating through the slot
// (Scheduler::Contains) is then a data race, which TSan reports here within
// a run; walking the source's own runnable queue
// (GpsSchedulerBase::FindRunnable), as TrySteal does, is not.
//
// Twelve threads of mixed weight on eight shards keep that churn going:
// every dispatcher blocks every third thread it runs and wakes its own
// blocked threads back a little later, so shards keep emptying (their
// dispatchers steal) and refilling behind a running thread (they become
// steal victims), while a short rebalance period moves threads between busy
// shards too.  With fewer threads than shards the shards drain to one thread
// each and migrations nearly stop.  The lock-order validator is switched
// off: its registry mutex orders every pair of lock operations and would hide
// the race from TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::sched {
namespace {

TEST(ShardedConcurrencyTest, StealRevalidationSurvivesMigrationChurn) {
  common::lock_order::SetEnabled(false);
  SchedConfig config;
  config.num_cpus = 8;
  config.shard_steal = ShardStealPolicy::kMaxSurplus;
  config.shard_rebalance_period = 2;
  config.shard_coupling = 1.0;
  Sharded<Sfs> scheduler(config);

  constexpr ThreadId kThreads = 12;
  {
    auto guard = scheduler.LockLifecycle();
    for (ThreadId tid = 0; tid < kThreads; ++tid) {
      scheduler.AddThread(tid, 1.0 + tid % 5, tid % config.num_cpus);
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> dispatchers;
  for (CpuId cpu = 0; cpu < config.num_cpus; ++cpu) {
    dispatchers.emplace_back([&, cpu] {
      // Threads this dispatcher blocked: their home is this shard until they
      // wake, so this shard's dispatch lock alone covers both calls
      // (scheduler.h's lifecycle relaxation).
      std::vector<ThreadId> blocked;
      for (int round = 0; !stop.load(); ++round) {
        ThreadId tid;
        {
          auto guard = scheduler.LockDispatch(cpu);
          if (!blocked.empty() && round % 2 == 0) {
            scheduler.Wakeup(blocked.front());
            blocked.erase(blocked.begin());
          }
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
        auto guard = scheduler.LockDispatch(cpu);
        scheduler.Charge(tid, 100);
        if (round % 3 == 0) {
          scheduler.Block(tid);
          blocked.push_back(tid);
        }
      }
      auto guard = scheduler.LockDispatch(cpu);
      for (const ThreadId tid : blocked) {
        scheduler.Wakeup(tid);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  stop.store(true);
  for (auto& d : dispatchers) {
    d.join();
  }

  // Single-threaded from here on.
  EXPECT_EQ(scheduler.CheckInvariants(), "");
  EXPECT_EQ(scheduler.thread_count(), kThreads);
  EXPECT_EQ(scheduler.runnable_count(), kThreads);
  EXPECT_GT(scheduler.steals(), 0);
}

}  // namespace
}  // namespace sfs::sched
