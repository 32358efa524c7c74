// Unit tests for the WFQ baseline.

#include <gtest/gtest.h>

#include <vector>

#include "src/sched/wfq.h"

namespace sfs::sched {
namespace {

SchedConfig Config(int cpus) {
  SchedConfig config;
  config.num_cpus = cpus;
  return config;
}

TEST(WfqTest, PicksMinimumFinishTag) {
  Wfq s(Config(1));
  s.AddThread(1, 10.0);  // predicted F = Q/10
  s.AddThread(2, 1.0);   // predicted F = Q
  EXPECT_EQ(s.PickNext(0), 1);
}

TEST(WfqTest, ProportionalOnUniprocessor) {
  Wfq s(Config(1));
  s.AddThread(1, 3.0);
  s.AddThread(2, 1.0);
  Tick service1 = 0;
  Tick service2 = 0;
  for (int i = 0; i < 6000; ++i) {
    const ThreadId t = s.PickNext(0);
    s.Charge(t, Msec(10));
    (t == 1 ? service1 : service2) += Msec(10);
  }
  EXPECT_NEAR(static_cast<double>(service1) / static_cast<double>(service2), 3.0, 0.1);
}

TEST(WfqTest, FinishTagRecomputedAfterWeightChange) {
  Wfq s(Config(2));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.AddThread(3, 1.0);
  const double f_before = s.FinishTag(1);
  s.SetWeight(1, 4.0);
  EXPECT_LT(s.FinishTag(1), f_before);  // larger weight -> earlier finish
}

TEST(WfqTest, EveryReadjustmentRepredictsQueuedFinishTags) {
  // A heavy thread is capped at the others' total weight (p = 2), so each
  // wakeup, block and exit of a light thread readjusts its phi.  Every queued
  // thread's finish tag must then be its prediction under its current phi.
  Wfq s(Config(2));
  std::vector<ThreadId> tids = {1, 2, 3, 4};
  const auto expect_repredicted = [&](const char* after) {
    for (const ThreadId tid : tids) {
      if (s.IsRunnable(tid)) {
        EXPECT_EQ(s.FinishTag(tid),
                  s.StartTag(tid) + static_cast<double>(s.config().quantum) / s.GetPhi(tid))
            << "thread " << tid << " after " << after;
      }
    }
    EXPECT_EQ(s.CheckInvariants(), "") << after;
  };
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.Block(2);  // blocked before the heavy thread arrives: no readjustment
  s.AddThread(3, 10.0);
  s.AddThread(4, 1.0);
  expect_repredicted("admissions");
  const ThreadId first = s.PickNext(0);
  s.Charge(first, Msec(3));
  expect_repredicted("a charge");

  Weight phi = s.GetPhi(3);
  s.Wakeup(2);
  ASSERT_NE(s.GetPhi(3), phi);
  expect_repredicted("a wakeup");
  for (CpuId cpu = 0; cpu < 2; ++cpu) {  // re-predicts the two it charges
    const ThreadId ran = s.PickNext(cpu);
    s.Charge(ran, Msec(3));
  }
  phi = s.GetPhi(3);
  s.Block(2);
  ASSERT_NE(s.GetPhi(3), phi);
  expect_repredicted("a block");
  phi = s.GetPhi(3);
  s.RemoveThread(4);
  tids.pop_back();
  ASSERT_NE(s.GetPhi(3), phi);
  expect_repredicted("an exit");
}

}  // namespace
}  // namespace sfs::sched
