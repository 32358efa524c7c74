// Tests for the alternative design the paper discusses and rejects: the
// partitioned per-processor approach (Section 1.2), built as the sharded
// layer's strawman configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/common/assert.h"
#include "src/sched/factory.h"
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

// The partitioned strawman: one uniprocessor SFQ per CPU, no stealing,
// independent shard timelines (coupling 0), and only the periodic weight
// rebalance every `rebalance_every` decisions (0 = never).
std::unique_ptr<ShardedScheduler> Partitioned(SchedConfig config, int rebalance_every) {
  config.shard_steal = ShardStealPolicy::kNone;
  config.shard_rebalance_period = rebalance_every;
  config.shard_coupling = 0.0;
  std::unique_ptr<Scheduler> scheduler = MakeScheduler("sharded-sfq", config);
  SFS_CHECK(dynamic_cast<ShardedScheduler*>(scheduler.get()) != nullptr);
  return std::unique_ptr<ShardedScheduler>(static_cast<ShardedScheduler*>(scheduler.release()));
}

// --- partitioned per-processor SFQ ----------------------------------------------

TEST(PartitionedTest, ArrivalsBalanceByWeight) {
  const auto s = Partitioned(Config(2), /*rebalance_every=*/0);
  s->AddThread(1, 4.0);
  s->AddThread(2, 3.0);
  s->AddThread(3, 2.0);  // joins the lighter partition (3.0 < 4.0)
  const auto weights = s->ShardRunnableWeights();
  EXPECT_DOUBLE_EQ(weights[0] + weights[1], 9.0);
  EXPECT_DOUBLE_EQ(std::max(weights[0], weights[1]), 5.0);
}

TEST(PartitionedTest, PerPartitionProportionalAllocation) {
  // Two threads pinned to the same partition split it by weight.
  const auto s = Partitioned(Config(2), 0);
  s->AddThread(1, 10.0);  // partition 0
  s->AddThread(2, 3.0);   // partition 1
  s->AddThread(3, 1.0);   // partition 1 (lighter: 3 < 10)
  Tick service2 = 0;
  Tick service3 = 0;
  for (int i = 0; i < 4000; ++i) {
    const ThreadId t = s->PickNext(1);
    ASSERT_TRUE(t == 2 || t == 3);
    s->Charge(t, Msec(10));
    (t == 2 ? service2 : service3) += Msec(10);
  }
  EXPECT_NEAR(static_cast<double>(service2) / static_cast<double>(service3), 3.0, 0.1);
}

TEST(PartitionedTest, NotGloballyWorkConserving) {
  // The paper's core criticism: a CPU whose partition empties idles even while
  // the other partition is backlogged.
  const auto s = Partitioned(Config(2), 0);
  s->AddThread(1, 1.0);
  s->AddThread(2, 1.0);
  s->AddThread(3, 1.0);
  // Threads 1 -> partition 0; 2 -> partition 1; 3 -> one of them.
  // Block whatever lives in partition 0.
  const ThreadId on0 = s->PickNext(0);
  ASSERT_NE(on0, kInvalidThread);
  s->Charge(on0, Msec(10));
  s->Block(on0);
  // If partition 0 is now empty, CPU 0 idles despite backlog elsewhere.
  const auto weights = s->ShardRunnableWeights();
  if (weights[0] == 0.0) {
    EXPECT_EQ(s->PickNext(0), kInvalidThread);
    EXPECT_GT(s->runnable_count(), 0);
  } else {
    SUCCEED();  // thread 3 landed on partition 0; symmetric case
  }
}

TEST(PartitionedTest, DeparturesCauseImbalanceRebalanceRepairs) {
  // Without rebalancing, departures skew the partitions; with it, the weights
  // re-equalize (at the cost of migrations).
  auto imbalance_after_churn = [](int rebalance_every) {
    const auto s = Partitioned(Config(2, Msec(10)), rebalance_every);
    for (ThreadId tid = 1; tid <= 8; ++tid) {
      s->AddThread(tid, 1.0);
    }
    // Remove three threads that share a partition (ids 1,3,5 alternate in).
    for (ThreadId tid : {1, 3, 5}) {
      s->RemoveThread(tid);
    }
    // Drive some decisions so rebalancing gets a chance to run.
    for (int i = 0; i < 200; ++i) {
      for (CpuId c = 0; c < 2; ++c) {
        const ThreadId t = s->PickNext(c);
        if (t != kInvalidThread) {
          s->Charge(t, Msec(10));
        }
      }
    }
    const auto weights = s->ShardRunnableWeights();
    return std::abs(weights[0] - weights[1]);
  };
  EXPECT_GT(imbalance_after_churn(0), 0.9);       // stuck imbalanced
  EXPECT_LT(imbalance_after_churn(16), 1.1);      // repaired (within one thread)
}

TEST(PartitionedTest, RebalanceMovesAreCounted) {
  const auto s = Partitioned(Config(2, Msec(10)), /*rebalance_every=*/4);
  for (ThreadId tid = 1; tid <= 6; ++tid) {
    s->AddThread(tid, 1.0);
  }
  for (ThreadId tid : {1, 3}) {
    s->RemoveThread(tid);
  }
  for (int i = 0; i < 50; ++i) {
    for (CpuId c = 0; c < 2; ++c) {
      const ThreadId t = s->PickNext(c);
      if (t != kInvalidThread) {
        s->Charge(t, Msec(10));
      }
    }
  }
  EXPECT_GE(s->shard_migrations(), 1);
}

TEST(PartitionedTest, GlobalUnfairnessUnderImbalance) {
  // 3 equal-weight threads, 2 CPUs, no rebalancing: the lone thread on its own
  // partition gets a full CPU while the other two split one — 2:1 instead of
  // the global 1:1:1 a multiprocessor-fair scheduler delivers (Section 1.2).
  const auto scheduler = Partitioned(Config(2), 0);
  sim::Engine engine(*scheduler);
  for (ThreadId tid = 1; tid <= 3; ++tid) {
    engine.AddTaskAt(0, workload::MakeInf(tid, 1.0, "t"));
  }
  engine.RunUntil(Sec(10));
  std::vector<Tick> services;
  for (ThreadId tid = 1; tid <= 3; ++tid) {
    services.push_back(engine.ServiceIncludingRunning(tid));
  }
  std::sort(services.begin(), services.end());
  EXPECT_NEAR(static_cast<double>(services[2]) / static_cast<double>(services[0]), 2.0, 0.1);
}

}  // namespace
}  // namespace sfs::sched
