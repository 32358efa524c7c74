// Additional SFS edge-case and equivalence tests: tag rebasing with sleepers,
// fixed-point vs exact decision agreement, and weight-change corner cases.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sched/sfs.h"

namespace sfs::sched {
namespace {

SchedConfig Config(int cpus, Tick quantum = kDefaultQuantum) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  return config;
}

TEST(SfsEdgeTest, RebaseWhileThreadSleepsKeepsWakeRuleIntact) {
  SchedConfig config = Config(1, Msec(10));
  config.tag_rebase_threshold = static_cast<double>(Msec(100));
  Sfs s(config);
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  // Thread 2 runs a little, then sleeps across several rebases.
  ASSERT_NE(s.PickNext(0), kInvalidThread);
  s.Charge(s.RunningOn(0), Msec(10));
  s.Block(2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(s.PickNext(0), 1);
    s.Charge(1, Msec(10));
  }
  EXPECT_GT(s.rebases(), 0);
  s.Wakeup(2);
  // The sleeper's rebased finish tag is far below the virtual time: its start
  // tag clamps to v, and the 1:1 split resumes without a catch-up burst.
  EXPECT_DOUBLE_EQ(s.StartTag(2), s.VirtualTime());
  int runs2 = 0;
  for (int i = 0; i < 20; ++i) {
    const ThreadId t = s.PickNext(0);
    runs2 += t == 2 ? 1 : 0;
    s.Charge(t, Msec(10));
  }
  EXPECT_EQ(runs2, 10);
}

TEST(SfsEdgeTest, FixedPointHighPrecisionMatchesExactShares) {
  // Individual decisions may legitimately differ (1e-8 quantization flips
  // near-ties), but long-run per-thread service must agree closely.
  auto run = [](int digits) {
    SchedConfig config = Config(2, Msec(20));
    config.fixed_point_digits = digits;
    Sfs s(config);
    common::Rng rng(1234);
    for (ThreadId tid = 1; tid <= 8; ++tid) {
      s.AddThread(tid, static_cast<Weight>(rng.UniformInt(1, 16)));
    }
    std::vector<std::pair<ThreadId, CpuId>> running;
    for (CpuId c = 0; c < 2; ++c) {
      running.emplace_back(s.PickNext(c), c);
    }
    for (int i = 0; i < 8000; ++i) {
      const auto [t, c] = running.front();
      running.erase(running.begin());
      s.Charge(t, Msec(20));
      running.emplace_back(s.PickNext(c), c);
    }
    std::vector<Tick> services;
    for (ThreadId tid = 1; tid <= 8; ++tid) {
      services.push_back(s.TotalService(tid));
    }
    return services;
  };
  const auto exact = run(-1);
  const auto fixed = run(8);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(fixed[i]) / static_cast<double>(exact[i]), 1.0, 0.02)
        << "thread " << i + 1;
  }
}

TEST(SfsEdgeTest, WeightDecreaseOnUncappedThreadTakesEffect) {
  // Regression test: phi must track a weight *decrease* of a never-capped
  // thread (an early implementation only rewrote phi for cap transitions).
  Sfs s(Config(1));
  s.AddThread(1, 8.0);
  s.AddThread(2, 1.0);
  s.SetWeight(1, 2.0);
  EXPECT_DOUBLE_EQ(s.GetPhi(1), 2.0);
  Tick service1 = 0;
  Tick service2 = 0;
  for (int i = 0; i < 3000; ++i) {
    const ThreadId t = s.PickNext(0);
    s.Charge(t, Msec(10));
    (t == 1 ? service1 : service2) += Msec(10);
  }
  EXPECT_NEAR(static_cast<double>(service1) / static_cast<double>(service2), 2.0, 0.05);
}

TEST(SfsEdgeTest, WeightChangeOnBlockedThreadAppliesOnWake) {
  Sfs s(Config(2));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.AddThread(3, 1.0);
  s.Block(3);
  s.SetWeight(3, 100.0);  // while blocked
  EXPECT_DOUBLE_EQ(s.GetWeight(3), 100.0);
  s.Wakeup(3);
  // On wake the readjustment caps the now-infeasible request at share 1/2.
  const double total = s.GetPhi(1) + s.GetPhi(2) + s.GetPhi(3);
  EXPECT_NEAR(s.GetPhi(3) / total, 0.5, 1e-9);
}

TEST(SfsEdgeTest, ManyCpusFewThreadsAllRun) {
  Sfs s(Config(8));
  for (ThreadId tid = 1; tid <= 3; ++tid) {
    s.AddThread(tid, static_cast<Weight>(tid));
  }
  // Three threads, eight CPUs: everyone gets a processor; five stay idle.
  std::vector<ThreadId> picked;
  for (CpuId c = 0; c < 8; ++c) {
    const ThreadId t = s.PickNext(c);
    if (t != kInvalidThread) {
      picked.push_back(t);
    }
  }
  EXPECT_EQ(picked.size(), 3u);
}

TEST(SfsEdgeTest, DepartureOfVirtualTimeHolderAdvancesV) {
  Sfs s(Config(1, Msec(10)));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(10));
  // Thread 2 has S=0 and holds v; removing it must advance v to thread 1's tag.
  const double v_before = s.VirtualTime();
  EXPECT_DOUBLE_EQ(v_before, 0.0);
  s.RemoveThread(2);
  EXPECT_DOUBLE_EQ(s.VirtualTime(), s.StartTag(1));
}

TEST(SfsEdgeTest, ChargeZeroTicksIsValid) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, 0);  // preempted before running (context-switch window)
  EXPECT_DOUBLE_EQ(s.StartTag(1), 0.0);
  EXPECT_EQ(s.PickNext(0), 1);
}

}  // namespace
}  // namespace sfs::sched
