// Unit tests for the SFQ baseline, including direct (engine-free) reproductions
// of the Example 1 pathology and its repair by weight readjustment.

#include "src/sched/sfq.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace sfs::sched {
namespace {

SchedConfig Config(int cpus, bool readjust, Tick quantum = kDefaultQuantum) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  config.use_readjustment = readjust;
  return config;
}

TEST(SfqTest, NameReflectsReadjustmentVariant) {
  Sfq plain(Config(2, false));
  Sfq fixed(Config(2, true));
  EXPECT_EQ(plain.name(), "SFQ");
  EXPECT_EQ(fixed.name(), "SFQ+readjust");
}

TEST(SfqTest, PicksMinimumStartTag) {
  Sfq s(Config(1, false));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(100));
  EXPECT_EQ(s.PickNext(0), 2);  // S2 = 0 < S1
}

TEST(SfqTest, StartTagAdvancesByWeightedService) {
  Sfq s(Config(1, false));
  s.AddThread(1, 4.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(100));
  EXPECT_DOUBLE_EQ(s.StartTag(1), static_cast<double>(Msec(100)) / 4.0);
}

TEST(SfqTest, ArrivalInheritsMinimumStartTag) {
  Sfq s(Config(1, false));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(500));
  s.AddThread(2, 1.0);
  EXPECT_DOUBLE_EQ(s.StartTag(2), s.VirtualTime());
  EXPECT_DOUBLE_EQ(s.StartTag(2), static_cast<double>(Msec(500)));
}

TEST(SfqTest, UniprocessorProportionalAllocation) {
  Sfq s(Config(1, false));
  s.AddThread(1, 3.0);
  s.AddThread(2, 1.0);
  Tick service1 = 0;
  Tick service2 = 0;
  for (int i = 0; i < 4000; ++i) {
    const ThreadId t = s.PickNext(0);
    s.Charge(t, Msec(10));
    (t == 1 ? service1 : service2) += Msec(10);
  }
  EXPECT_NEAR(static_cast<double>(service1) / static_cast<double>(service2), 3.0, 0.05);
}

// Direct reproduction of Example 1 (Section 1.2) at the scheduler level:
// "thread 1 starves for 900 quanta".
TEST(SfqTest, Example1InfeasibleWeightsStarveThread1) {
  const Tick q = Msec(1);
  Sfq s(Config(2, /*readjust=*/false, q));
  s.AddThread(1, 1.0);   // T1
  s.AddThread(2, 10.0);  // T2
  // Both run continuously for 1000 quanta (one per CPU; which CPU gets which
  // thread depends on their relative start tags).
  for (int i = 0; i < 1000; ++i) {
    const ThreadId a = s.PickNext(0);
    const ThreadId b = s.PickNext(1);
    ASSERT_TRUE((a == 1 && b == 2) || (a == 2 && b == 1));
    s.Charge(a, q);
    s.Charge(b, q);
  }
  // S1 = 1000 q, S2 = 100 q.  T3 arrives with S3 = min = S2.
  EXPECT_DOUBLE_EQ(s.StartTag(1), static_cast<double>(1000 * q));
  EXPECT_DOUBLE_EQ(s.StartTag(2), static_cast<double>(100 * q));
  s.AddThread(3, 1.0);
  EXPECT_DOUBLE_EQ(s.StartTag(3), s.StartTag(2));

  // From here threads 2 and 3 monopolize both processors while T1 starves...
  int t1_runs = 0;
  int quanta = 0;
  for (; quanta < 2000; ++quanta) {
    const ThreadId a = s.PickNext(0);
    const ThreadId b = s.PickNext(1);
    t1_runs += (a == 1 || b == 1) ? 1 : 0;
    if (a == 1 || b == 1) {
      s.Charge(a, q);
      s.Charge(b, q);
      break;
    }
    s.Charge(a, q);
    s.Charge(b, q);
  }
  // ...for ~900 quanta (S2 and S3 must catch up from 100q to 1000q at q/10 and
  // q per quantum respectively; T3 reaches it first at 900 quanta).
  EXPECT_EQ(t1_runs, 1);
  EXPECT_NEAR(quanta, 900, 5);
}

// Same scenario with the readjustment algorithm: no starvation.
TEST(SfqTest, Example1RepairedByReadjustment) {
  const Tick q = Msec(1);
  Sfq s(Config(2, /*readjust=*/true, q));
  s.AddThread(1, 1.0);
  s.AddThread(2, 10.0);
  // phi readjusted to equal: both start tags advance identically.
  for (int i = 0; i < 1000; ++i) {
    const ThreadId a = s.PickNext(0);
    const ThreadId b = s.PickNext(1);
    ASSERT_TRUE((a == 1 && b == 2) || (a == 2 && b == 1));
    s.Charge(a, q);
    s.Charge(b, q);
  }
  EXPECT_DOUBLE_EQ(s.StartTag(1), s.StartTag(2));
  s.AddThread(3, 1.0);

  // T1 keeps running regularly: over the next 300 quanta-pairs it must appear
  // on a processor about 2/3 of the time (weights 1:2:1 readjusted -> T2 gets
  // half, T1 and T3 split the rest).
  int t1_runs = 0;
  for (int i = 0; i < 300; ++i) {
    const ThreadId a = s.PickNext(0);
    const ThreadId b = s.PickNext(1);
    t1_runs += (a == 1 || b == 1) ? 1 : 0;
    s.Charge(a, q);
    s.Charge(b, q);
  }
  EXPECT_GT(t1_runs, 120);  // ~150 expected; 0 would mean starvation
}

TEST(SfqTest, WokenThreadClampedToVirtualTime) {
  Sfq s(Config(1, false));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.Block(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(s.PickNext(0), 1);
    s.Charge(1, Msec(200));
  }
  s.Wakeup(2);
  EXPECT_DOUBLE_EQ(s.StartTag(2), s.VirtualTime());
}

TEST(SfqTest, ReadjustmentCapsInfeasibleWeight) {
  Sfq s(Config(2, true));
  s.AddThread(1, 100.0);
  s.AddThread(2, 1.0);
  s.AddThread(3, 1.0);
  const double total = s.GetPhi(1) + s.GetPhi(2) + s.GetPhi(3);
  EXPECT_NEAR(s.GetPhi(1) / total, 0.5, 1e-9);
}

TEST(SfqTest, FeasibilityQueryTracksRunnableSet) {
  Sfq s(Config(2, true));
  s.AddThread(1, 2.0);
  s.AddThread(2, 1.0);
  s.AddThread(3, 1.0);
  EXPECT_TRUE(s.WeightsFeasible());  // 2/4 == 1/2
  s.Block(3);
  EXPECT_FALSE(s.WeightsFeasible());  // {2,1}: 2/3 > 1/2
  s.Wakeup(3);
  EXPECT_TRUE(s.WeightsFeasible());
}

}  // namespace
}  // namespace sfs::sched
