// Unit tests for Surplus Fair Scheduling (Sections 2.3, 3.1, 3.2).

#include "src/sched/sfs.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/sfq.h"

namespace sfs::sched {
namespace {

SchedConfig Config(int cpus, Tick quantum = kDefaultQuantum) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  return config;
}

TEST(SfsTest, NewThreadStartsAtVirtualTime) {
  Sfs s(Config(2));
  s.AddThread(1, 1.0);
  EXPECT_DOUBLE_EQ(s.StartTag(1), 0.0);
  EXPECT_DOUBLE_EQ(s.VirtualTime(), 0.0);
  // Advance thread 1, then a new arrival starts at the (new) virtual time.
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(100));
  EXPECT_DOUBLE_EQ(s.VirtualTime(), s.StartTag(1));
  s.AddThread(2, 1.0);
  EXPECT_DOUBLE_EQ(s.StartTag(2), s.VirtualTime());
}

TEST(SfsTest, FinishTagFollowsEquationFive) {
  // F = S + q / phi.  Two equal threads on two CPUs: phi = w = 1.
  Sfs s(Config(2));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(100));
  EXPECT_DOUBLE_EQ(s.FinishTag(1), static_cast<double>(Msec(100)));
  EXPECT_DOUBLE_EQ(s.StartTag(1), s.FinishTag(1));
}

TEST(SfsTest, ReadjustedWeightUsedForTags) {
  // w = {10, 1} on 2 CPUs readjusts to equal phi; tags advance equally.
  Sfs s(Config(2));
  s.AddThread(1, 10.0);
  s.AddThread(2, 1.0);
  EXPECT_DOUBLE_EQ(s.GetPhi(1), s.GetPhi(2));
  ASSERT_NE(s.PickNext(0), kInvalidThread);
  ASSERT_NE(s.PickNext(1), kInvalidThread);
  s.Charge(1, Msec(100));
  s.Charge(2, Msec(100));
  EXPECT_DOUBLE_EQ(s.StartTag(1), s.StartTag(2));
}

TEST(SfsTest, SurplusNonNegativeAndSomeThreadAtZero) {
  Sfs s(Config(2));
  common::Rng rng(5);
  for (ThreadId tid = 1; tid <= 8; ++tid) {
    s.AddThread(tid, static_cast<double>(rng.UniformInt(1, 10)));
  }
  // Random dispatch churn.
  std::vector<std::pair<ThreadId, CpuId>> running;
  for (CpuId c = 0; c < 2; ++c) {
    running.emplace_back(s.PickNext(c), c);
  }
  for (int i = 0; i < 200; ++i) {
    const auto [victim, cpu] = running.front();
    running.erase(running.begin());
    s.Charge(victim, Msec(rng.UniformInt(1, 200)));

    double min_surplus = 1e18;
    for (ThreadId tid = 1; tid <= 8; ++tid) {
      const double a = s.Surplus(tid);
      EXPECT_GE(a, -1e-9);
      min_surplus = std::min(min_surplus, a);
    }
    // "At any instant, there is always at least one thread with alpha_i = 0."
    EXPECT_NEAR(min_surplus, 0.0, 1e-9);

    running.emplace_back(s.PickNext(cpu), cpu);
  }
}

TEST(SfsTest, PicksLeastSurplusThread) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  // Run thread 1 for a while: it accumulates surplus; thread 2 must be next.
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(200));
  EXPECT_EQ(s.PickNext(0), 2);
  s.Charge(2, Msec(200));
}

TEST(SfsTest, ReducesToSfqOnUniprocessor) {
  // "Surplus fair scheduling reduces to start-time fair queueing (SFQ) in a
  // uniprocessor system": identical dispatch sequences for identical inputs.
  Sfs sfs(Config(1));
  Sfq sfq(Config(1));
  common::Rng rng(17);
  std::map<ThreadId, Weight> weights;
  for (ThreadId tid = 1; tid <= 6; ++tid) {
    const auto w = static_cast<Weight>(rng.UniformInt(1, 10));
    weights[tid] = w;
    sfs.AddThread(tid, w);
    sfq.AddThread(tid, w);
  }
  for (int i = 0; i < 500; ++i) {
    const ThreadId a = sfs.PickNext(0);
    const ThreadId b = sfq.PickNext(0);
    ASSERT_EQ(a, b) << "diverged at decision " << i;
    const Tick q = Msec(rng.UniformInt(1, 200));
    sfs.Charge(a, q);
    sfq.Charge(b, q);
  }
}

TEST(SfsTest, WokenThreadGetsNoSleepCredit) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  // Thread 2 blocks immediately; thread 1 runs for a long time.
  s.Block(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(s.PickNext(0), 1);
    s.Charge(1, Msec(200));
  }
  // On wakeup, S2 = max(F2, v) = v — not its stale tag.
  s.Wakeup(2);
  EXPECT_DOUBLE_EQ(s.StartTag(2), s.VirtualTime());
  // Both threads now stand at the virtual time: thread 2 must NOT receive the 10
  // quanta it "missed" while sleeping — over the next 10 quanta the split is 5:5.
  int runs2 = 0;
  for (int i = 0; i < 10; ++i) {
    const ThreadId t = s.PickNext(0);
    runs2 += t == 2 ? 1 : 0;
    s.Charge(t, Msec(200));
  }
  EXPECT_EQ(runs2, 5);
}

TEST(SfsTest, VariableLengthQuantaSupported) {
  // The surplus depends only on start tags, so charging arbitrary quantum
  // lengths keeps proportions exact: w 2:1 with services 2q:q stays balanced.
  Sfs s(Config(1));
  s.AddThread(1, 2.0);
  s.AddThread(2, 1.0);
  Tick service1 = 0;
  Tick service2 = 0;
  common::Rng rng(23);
  for (int i = 0; i < 3000; ++i) {
    const ThreadId t = s.PickNext(0);
    const Tick q = Msec(rng.UniformInt(1, 50));
    s.Charge(t, q);
    (t == 1 ? service1 : service2) += q;
  }
  EXPECT_NEAR(static_cast<double>(service1) / static_cast<double>(service2), 2.0, 0.1);
}

TEST(SfsTest, IdleVirtualTimeFrozenAtLastFinishTag) {
  Sfs s(Config(2));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(100));
  const double f1 = s.FinishTag(1);
  s.Block(1);
  // System empty: virtual time holds at the last finish tag.
  EXPECT_DOUBLE_EQ(s.VirtualTime(), f1);
  // A new arrival starts there, not at zero.
  s.AddThread(2, 1.0);
  EXPECT_DOUBLE_EQ(s.StartTag(2), f1);
}

TEST(SfsTest, WeightChangeTriggersReadjustment) {
  Sfs s(Config(2));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.AddThread(3, 1.0);
  EXPECT_DOUBLE_EQ(s.GetPhi(1), 1.0);
  s.SetWeight(1, 100.0);  // now infeasible: must be capped to share 1/2
  const double total = s.GetPhi(1) + s.GetPhi(2) + s.GetPhi(3);
  EXPECT_NEAR(s.GetPhi(1) / total, 0.5, 1e-9);
}

TEST(SfsTest, TagRebaseKeepsOrderingAndRelativeTags) {
  SchedConfig config = Config(1);
  config.tag_rebase_threshold = static_cast<double>(Msec(500));
  Sfs s(config);
  s.AddThread(1, 1.0);
  s.AddThread(2, 2.0);
  common::Rng rng(31);
  Tick service1 = 0;
  Tick service2 = 0;
  for (int i = 0; i < 2000; ++i) {
    const ThreadId t = s.PickNext(0);
    const Tick q = Msec(rng.UniformInt(1, 20));
    s.Charge(t, q);
    (t == 1 ? service1 : service2) += q;
  }
  EXPECT_GT(s.rebases(), 0);
  // Proportions survive rebasing.
  EXPECT_NEAR(static_cast<double>(service2) / static_cast<double>(service1), 2.0, 0.1);
  // Tags stay bounded by the threshold (plus one quantum of slack).
  EXPECT_LT(s.StartTag(1), static_cast<double>(Msec(800)));
}

TEST(SfsTest, FixedPointModeMatchesExactProportions) {
  SchedConfig config = Config(1);
  config.fixed_point_digits = 4;  // the paper's 10^4 scaling factor
  Sfs s(config);
  s.AddThread(1, 3.0);
  s.AddThread(2, 7.0);
  Tick service1 = 0;
  Tick service2 = 0;
  for (int i = 0; i < 5000; ++i) {
    const ThreadId t = s.PickNext(0);
    s.Charge(t, Msec(10));
    (t == 1 ? service1 : service2) += Msec(10);
  }
  EXPECT_NEAR(static_cast<double>(service2) / static_cast<double>(service1), 7.0 / 3.0, 0.05);
}

TEST(SfsTest, DecisionCountersAdvance) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, Msec(10));
  ASSERT_EQ(s.PickNext(0), 1);
  EXPECT_EQ(s.decisions(), 2);
  EXPECT_GE(s.full_refreshes(), 1);
}

TEST(SfsTest, PreemptionSuggestedForLongRunner) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  // Thread 2 wakes with zero surplus while thread 1 has been running 150 ms:
  // its prospective surplus exceeds the newcomer's -> preempt CPU 0.
  s.AddThread(2, 1.0);
  const std::vector<Tick> elapsed = {Msec(150)};
  EXPECT_EQ(s.SuggestPreemption(2, elapsed), 0);
  // With no elapsed time there is nothing to gain.
  const std::vector<Tick> fresh = {0};
  EXPECT_EQ(s.SuggestPreemption(2, fresh), kInvalidCpu);
}

}  // namespace
}  // namespace sfs::sched
