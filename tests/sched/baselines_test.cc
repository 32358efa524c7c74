// Unit tests for the WFQ baseline.

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sfs::sched
