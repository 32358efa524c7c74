// Tests for the sharded scheduling layer (src/sched/sharded.h): the p=1
// differential against global SFS (trace-identical), idle-pull stealing,
// RemoveThread/Block immediately after an in-flight steal, surplus-aware
// rebalancing, and the cross-shard virtual-time coupling knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::sched {
namespace {

SchedConfig Config(int cpus, Tick quantum = kDefaultQuantum) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  return config;
}

// --- p=1 differential: sharded-SFS must be trace-identical to global SFS ---

// Drives the same seeded op mix (arrivals, kills, blocks, wakeups, weight
// changes, variable-length charges, dispatches) through both schedulers in
// lockstep, asserting every PickNext and SuggestPreemption agrees.
void DriveLockstep(Scheduler& a, Scheduler& b, std::uint64_t seed, int ops) {
  common::Rng rng(seed);
  std::vector<ThreadId> runnable;
  std::vector<ThreadId> blocked;
  ThreadId running = kInvalidThread;
  ThreadId next_tid = 1;

  const auto add_thread = [&] {
    const ThreadId tid = next_tid++;
    const auto weight = static_cast<Weight>(rng.UniformInt(1, 20));
    a.AddThread(tid, weight);
    b.AddThread(tid, weight);
    runnable.push_back(tid);
  };
  const auto take = [&rng](std::vector<ThreadId>& pool) {
    const std::size_t i = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
    const ThreadId tid = pool[i];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    return tid;
  };

  add_thread();
  add_thread();
  for (int op = 0; op < ops; ++op) {
    const auto choice = rng.UniformInt(0, 9);
    if (choice <= 1) {
      add_thread();
      const std::vector<Tick> elapsed = {Msec(rng.UniformInt(0, 100))};
      ASSERT_EQ(a.SuggestPreemption(runnable.back(), elapsed),
                b.SuggestPreemption(runnable.back(), elapsed))
          << "seed " << seed << " op " << op;
    } else if (choice == 2 && !runnable.empty()) {
      const ThreadId tid = take(runnable);
      a.RemoveThread(tid);
      b.RemoveThread(tid);
    } else if (choice == 3 && !runnable.empty()) {
      const ThreadId tid = take(runnable);
      a.Block(tid);
      b.Block(tid);
      blocked.push_back(tid);
    } else if (choice == 4 && !blocked.empty()) {
      const ThreadId tid = take(blocked);
      a.Wakeup(tid);
      b.Wakeup(tid);
      runnable.push_back(tid);
    } else if (choice == 5 && !(runnable.empty() && blocked.empty())) {
      auto& pool = (!runnable.empty() && (blocked.empty() || rng.Bernoulli(0.7))) ? runnable
                                                                                  : blocked;
      const std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
      const auto weight = static_cast<Weight>(rng.UniformInt(1, 20));
      a.SetWeight(pool[i], weight);
      b.SetWeight(pool[i], weight);
    } else if (choice <= 7 && running == kInvalidThread && !runnable.empty()) {
      const ThreadId pa = a.PickNext(0);
      const ThreadId pb = b.PickNext(0);
      ASSERT_EQ(pa, pb) << "seed " << seed << " op " << op;
      if (pa != kInvalidThread) {
        running = pa;
        runnable.erase(std::find(runnable.begin(), runnable.end(), pa));
      }
    } else if (running != kInvalidThread) {
      const Tick ran = Msec(rng.UniformInt(1, 200));
      a.Charge(running, ran);
      b.Charge(running, ran);
      runnable.push_back(running);
      running = kInvalidThread;
    }
  }
  if (running != kInvalidThread) {
    a.Charge(running, Msec(1));
    b.Charge(running, Msec(1));
  }
  for (ThreadId tid = 1; tid < next_tid; ++tid) {
    if (!a.Contains(tid)) {
      ASSERT_FALSE(b.Contains(tid));
      continue;
    }
    ASSERT_EQ(a.TotalService(tid), b.TotalService(tid)) << "tid " << tid;
    ASSERT_EQ(a.GetPhi(tid), b.GetPhi(tid)) << "tid " << tid;
    ASSERT_EQ(a.IsRunnable(tid), b.IsRunnable(tid)) << "tid " << tid;
  }
}

TEST(ShardedDifferentialTest, UniprocessorShardedSfsMatchesGlobalSfsProtocol) {
  for (const std::uint64_t seed : {1ULL, 23ULL, 777ULL}) {
    Sfs global(Config(1));
    Sharded<Sfs> sharded(Config(1));
    DriveLockstep(global, sharded, seed, /*ops=*/1500);
  }
}

// Engine-level variant: identical dispatch fingerprints for a churny workload
// (arrivals, exits, blocking sleepers, a mid-run kill) at p=1.
std::uint64_t EngineFingerprint(Scheduler& scheduler) {
  sim::Engine engine(scheduler);
  std::uint64_t fingerprint = 1469598103934665603ULL;
  engine.SetRunIntervalHook([&fingerprint](Tick start, Tick len, CpuId cpu, ThreadId tid) {
    for (const std::uint64_t x : {static_cast<std::uint64_t>(start), static_cast<std::uint64_t>(len),
                                  static_cast<std::uint64_t>(cpu), static_cast<std::uint64_t>(tid)}) {
      fingerprint ^= x;
      fingerprint *= 1099511628211ULL;
    }
  });
  engine.AddTaskAt(0, workload::MakeInf(1, 3.0, "hog"));
  engine.AddTaskAt(Msec(50), workload::MakeInf(2, 1.0, "hog"));
  engine.AddTaskAt(Msec(100), workload::MakeFixedWork(3, 2.0, Msec(700), "short"));
  workload::Interact::Params params;
  params.seed = 11;
  engine.AddTaskAt(0, workload::MakeInteract(4, 1.0, params, nullptr, "sleeper"));
  engine.AddPeriodicHook(Sec(2), [done = false](sim::Engine& e) mutable {
    if (!done && e.HasTask(2) && e.task(2).state() != sim::Task::State::kExited) {
      e.KillTask(2);
      done = true;
    }
  });
  engine.RunUntil(Sec(5));
  return fingerprint;
}

TEST(ShardedDifferentialTest, UniprocessorShardedSfsMatchesGlobalSfsEngineTrace) {
  Sfs global(Config(1));
  Sharded<Sfs> sharded(Config(1));
  EXPECT_EQ(EngineFingerprint(global), EngineFingerprint(sharded));
  EXPECT_EQ(sharded.steals(), 0);  // nothing to steal from at p=1
}

// --- idle-pull stealing -------------------------------------------------------

TEST(ShardedTest, DrainedShardStealsHighestSurplusThread) {
  Sharded<Sfs> s(Config(2, Msec(10)));
  s.AddThread(1, 1.0);  // shard 0 (ties go to the lowest id)
  s.AddThread(2, 1.0);  // shard 1
  s.AddThread(3, 1.0);  // shard 0 (1.0 < 2.0)
  ASSERT_EQ(s.ShardOf(1), 0);
  ASSERT_EQ(s.ShardOf(2), 1);
  ASSERT_EQ(s.ShardOf(3), 0);

  ASSERT_EQ(s.PickNext(0), 1);
  ASSERT_EQ(s.PickNext(1), 2);
  s.Charge(2, Msec(10));
  s.Block(2);  // shard 1 drains (thread 1 still running on CPU 0)

  // CPU 1 has nothing local; it must pull the queued thread from shard 0.
  EXPECT_EQ(s.PickNext(1), 3);
  EXPECT_EQ(s.steals(), 1);
  EXPECT_EQ(s.ShardOf(3), 1);
  const auto weights = s.ShardRunnableWeights();
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_DOUBLE_EQ(weights[1], 1.0);
}

TEST(ShardedTest, StealPolicyNoneReproducesPartitionedIdling) {
  SchedConfig config = Config(2, Msec(10));
  config.shard_steal = ShardStealPolicy::kNone;
  Sharded<Sfs> s(config);
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.AddThread(3, 1.0);
  ASSERT_EQ(s.PickNext(1), 2);
  s.Charge(2, Msec(10));
  s.Block(2);
  // Backlog exists on shard 0, but the strawman never steals.
  EXPECT_EQ(s.PickNext(1), kInvalidThread);
  EXPECT_GT(s.runnable_count(), 0);
  EXPECT_EQ(s.steals(), 0);
}

// --- RemoveThread / Block racing an in-flight steal ---------------------------

TEST(ShardedTest, BlockAndWakeupAfterStealFollowTheNewHomeShard) {
  Sharded<Sfs> s(Config(2, Msec(10)));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.AddThread(3, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  ASSERT_EQ(s.PickNext(1), 2);
  s.Charge(2, Msec(10));
  s.Block(2);
  ASSERT_EQ(s.PickNext(1), 3);  // steal moves thread 3's home to shard 1
  ASSERT_EQ(s.steals(), 1);

  // The stolen thread blocks right after its quantum: the block and the later
  // wakeup must be routed to the *new* home shard without tripping a CHECK.
  s.Charge(3, Msec(5));
  s.Block(3);
  EXPECT_FALSE(s.IsRunnable(3));
  s.Wakeup(3);
  EXPECT_TRUE(s.IsRunnable(3));
  EXPECT_EQ(s.ShardOf(3), 1);

  // Same for removal: kill the stolen thread, then its old shard-mates.
  s.Charge(1, Msec(5));
  s.RemoveThread(3);
  EXPECT_FALSE(s.Contains(3));
  s.RemoveThread(1);
  s.Wakeup(2);
  EXPECT_EQ(s.PickNext(1), 2);
  const auto weights = s.ShardRunnableWeights();
  EXPECT_DOUBLE_EQ(weights[0], 0.0);
  EXPECT_DOUBLE_EQ(weights[1], 1.0);
}

TEST(ShardedTest, RemoveFromVictimShardAfterStealKeepsWeightsConsistent) {
  Sharded<Sfs> s(Config(2, Msec(10)));
  for (ThreadId tid = 1; tid <= 5; ++tid) {
    s.AddThread(tid, 1.0);  // 1,3,5 -> shard 0; 2,4 -> shard 1
  }
  ASSERT_EQ(s.PickNext(0), 1);  // CPU 0 busy: shard 0 is a legitimate victim
  ASSERT_EQ(s.PickNext(1), 2);
  s.Charge(2, Msec(10));
  s.Block(2);
  s.Block(4);  // shard 1 fully drained
  // Shard 1 steals from shard 0; queued candidates 3 and 5 tie at surplus 0
  // -> lowest tid.
  ASSERT_EQ(s.PickNext(1), 3);
  ASSERT_EQ(s.steals(), 1);
  ASSERT_EQ(s.ShardOf(3), 1);
  // Steal in flight (thread 3 running on CPU 1): mutate the shard it left.
  s.RemoveThread(5);
  s.SetWeight(1, 7.0);
  s.Charge(3, Msec(10));
  s.RemoveThread(3);
  s.Charge(1, Msec(10));
  s.Wakeup(2);
  s.Wakeup(4);
  const auto weights = s.ShardRunnableWeights();
  EXPECT_DOUBLE_EQ(weights[0], 7.0);  // thread 1
  EXPECT_DOUBLE_EQ(weights[1], 2.0);  // threads 2 and 4 back home
}

// --- periodic surplus-aware rebalancing ---------------------------------------

TEST(ShardedTest, RebalanceRepairsDepartureImbalance) {
  auto imbalance_after_churn = [](int rebalance_period) {
    SchedConfig config = Config(2, Msec(10));
    config.shard_steal = ShardStealPolicy::kNone;
    config.shard_rebalance_period = rebalance_period;
    Sharded<Sfs> s(config);
    for (ThreadId tid = 1; tid <= 8; ++tid) {
      s.AddThread(tid, 1.0);  // odd ids -> shard 0, even -> shard 1
    }
    for (const ThreadId tid : {1, 3, 5}) {
      s.RemoveThread(tid);
    }
    for (int i = 0; i < 200; ++i) {
      for (CpuId cpu = 0; cpu < 2; ++cpu) {
        const ThreadId tid = s.PickNext(cpu);
        if (tid != kInvalidThread) {
          s.Charge(tid, Msec(10));
        }
      }
    }
    const auto weights = s.ShardRunnableWeights();
    return std::abs(weights[0] - weights[1]);
  };
  EXPECT_GT(imbalance_after_churn(0), 0.9);   // stuck imbalanced
  EXPECT_LT(imbalance_after_churn(16), 1.1);  // repaired (within one thread)
}

TEST(ShardedTest, RebalanceNeverParksWorkOnAnIdleProcessor) {
  // Strawman knobs (no stealing) with rebalancing on: when the shard-1 task
  // exits at t=1s, CPU 1 idles with no pending dispatch.  The rebalancer must
  // not migrate a hog into that shard — nothing would ever dispatch it, so
  // the thread would be parked (starved) while its twin owns CPU 0.
  SchedConfig config = Config(2, Msec(100));
  config.shard_steal = ShardStealPolicy::kNone;
  config.shard_rebalance_period = 8;
  Sharded<Sfs> scheduler(config);
  sim::Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "hog"));                  // shard 0
  engine.AddTaskAt(0, workload::MakeFixedWork(2, 1.0, Sec(1), "short"));  // shard 1
  engine.AddTaskAt(0, workload::MakeInf(3, 1.0, "hog"));                  // shard 0
  engine.RunUntil(Sec(10));
  // The two hogs keep sharing CPU 0 evenly (CPU 1's idling is the strawman's
  // documented capacity loss, not a fairness loss).
  EXPECT_NEAR(static_cast<double>(engine.ServiceIncludingRunning(1)),
              static_cast<double>(engine.ServiceIncludingRunning(3)),
              static_cast<double>(3 * Msec(100)));
}

TEST(ShardedTest, StealingRecoversCapacityAfterShardDrain) {
  // Same drain, production knobs: the freed processor steals a queued hog and
  // no capacity is lost for the rest of the run.
  Sharded<Sfs> scheduler(Config(2, Msec(100)));
  sim::Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "hog"));
  engine.AddTaskAt(0, workload::MakeFixedWork(2, 1.0, Sec(1), "short"));
  engine.AddTaskAt(0, workload::MakeInf(3, 1.0, "hog"));
  engine.RunUntil(Sec(10));
  EXPECT_EQ(engine.idle_time(), 0);
  EXPECT_GE(engine.steals(), 1);
  EXPECT_EQ(engine.ServiceIncludingRunning(1) + engine.ServiceIncludingRunning(3),
            2 * Sec(10) - Sec(1));
}

// --- cross-shard virtual-time coupling -----------------------------------------

// Threads 1 and 3 share shard 0, thread 2 owns shard 1.  Thread 1 accumulates
// 100 ms of weighted service (a 100 ms lead over shard 0's virtual time, which
// thread 3 pins at 0), then the drained shard 1 steals it.  Coupling 1 keeps
// its absolute start tag (shared timeline: v_src = 0 survives); coupling 0
// re-expresses the lead on top of shard 1's virtual time (1 ms).
double StolenStartTag(double coupling) {
  SchedConfig config = Config(2, Msec(100));
  config.shard_coupling = coupling;
  Sharded<Sfs> s(config);
  s.AddThread(1, 1.0);  // shard 0
  s.AddThread(2, 1.0);  // shard 1
  s.AddThread(3, 1.0);  // shard 0
  EXPECT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(100));       // thread 1: start tag 100 ms, queued
  EXPECT_EQ(s.PickNext(0), 3);  // thread 3 (tag 0) keeps CPU 0 busy
  EXPECT_EQ(s.PickNext(1), 2);
  s.Charge(2, Msec(1));
  s.Block(2);                   // shard 1 drains (virtual time ~1 ms)
  EXPECT_EQ(s.PickNext(1), 1);  // steal the only queued shard-0 thread
  EXPECT_EQ(s.steals(), 1);
  return static_cast<const Sfs&>(s.shard(1)).StartTag(1);
}

TEST(ShardedTest, CouplingOnePreservesAbsoluteTagsAcrossShards) {
  EXPECT_DOUBLE_EQ(StolenStartTag(1.0), static_cast<double>(Msec(100)));
}

TEST(ShardedTest, CouplingZeroRebasesLeadOntoDestinationVirtualTime) {
  // The migrant keeps only its 100 ms lead over shard 0's virtual time,
  // re-expressed on shard 1's frozen virtual time (1 ms).
  EXPECT_DOUBLE_EQ(StolenStartTag(0.0), static_cast<double>(Msec(101)));
}

// --- factory-built sharded policies under the engine ---------------------------

TEST(ShardedTest, AllShardedKindsSurviveChurnUnderTheEngine) {
  for (const SchedKind kind : {SchedKind::kShardedSfs, SchedKind::kShardedSfq}) {
    SchedConfig config = Config(3, Msec(20));
    config.shard_rebalance_period = 32;
    auto scheduler = CreateScheduler(kind, config);
    sim::Engine engine(*scheduler);
    for (ThreadId tid = 1; tid <= 7; ++tid) {
      engine.AddTaskAt(Msec(10 * tid), workload::MakeInf(tid, 1.0 + tid % 4, "hog"));
    }
    engine.AddTaskAt(0, workload::MakeFixedWork(8, 2.0, Msec(300), "short"));
    workload::Interact::Params params;
    params.seed = 5;
    engine.AddTaskAt(0, workload::MakeInteract(9, 1.0, params, nullptr, "sleeper"));
    engine.AddPeriodicHook(Sec(1), [done = false](sim::Engine& e) mutable {
      if (!done) {
        e.KillTask(3);
        done = true;
      }
    });
    const Tick horizon = Sec(4);
    engine.RunUntil(horizon);
    // Accounting identity: service + idle + switch cost == capacity.
    Tick total_service = 0;
    engine.ForEachTask([&](const sim::Task& task) {
      total_service += engine.ServiceIncludingRunning(task.tid());
    });
    EXPECT_EQ(total_service + engine.idle_time() + engine.total_context_switch_cost(),
              static_cast<Tick>(3) * horizon)
        << SchedKindName(kind);
  }
}

TEST(ShardedTest, EveryShardedKindStealsWhenItsShardDrains) {
  for (const SchedKind kind : {SchedKind::kShardedSfs, SchedKind::kShardedSfq}) {
    auto scheduler = CreateScheduler(kind, Config(2, Msec(10)));
    scheduler->AddThread(1, 1.0);  // shard 0
    scheduler->AddThread(2, 1.0);  // shard 1
    scheduler->AddThread(3, 1.0);  // shard 0
    ASSERT_EQ(scheduler->PickNext(0), 1) << SchedKindName(kind);
    ASSERT_EQ(scheduler->PickNext(1), 2) << SchedKindName(kind);
    scheduler->Charge(2, Msec(10));
    scheduler->Block(2);
    EXPECT_EQ(scheduler->PickNext(1), 3) << SchedKindName(kind);
    EXPECT_EQ(scheduler->steals(), 1) << SchedKindName(kind);
  }
}

}  // namespace
}  // namespace sfs::sched
