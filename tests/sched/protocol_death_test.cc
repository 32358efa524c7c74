// Protocol-violation death tests: the kernel hook protocol (Section 3.1,
// documented on sched::Scheduler) is enforced with CHECKs; each violation must
// abort rather than corrupt scheduler state.  These double as executable
// documentation of the driver contract.

#include <gtest/gtest.h>

#include <limits>

#include "src/sched/sfs.h"

namespace sfs::sched {
namespace {

SchedConfig Config(int cpus) {
  SchedConfig config;
  config.num_cpus = cpus;
  return config;
}

using ProtocolDeathTest = ::testing::Test;

TEST(ProtocolDeathTest, DuplicateThreadId) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  EXPECT_DEATH(s.AddThread(1, 2.0), "CHECK failed");
}

TEST(ProtocolDeathTest, NonPositiveWeight) {
  Sfs s(Config(1));
  EXPECT_DEATH(s.AddThread(1, 0.0), "CHECK failed");
  EXPECT_DEATH(s.AddThread(2, -1.0), "CHECK failed");
  EXPECT_DEATH(s.AddThread(3, std::numeric_limits<double>::infinity()), "CHECK failed");
  s.AddThread(4, 1.0);
  EXPECT_DEATH(s.SetWeight(4, std::numeric_limits<double>::infinity()), "CHECK failed");
}

TEST(ProtocolDeathTest, PickOnOccupiedCpu) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  // The driver must Charge the previous thread before re-dispatching the CPU.
  EXPECT_DEATH(s.PickNext(0), "CHECK failed");
}

TEST(ProtocolDeathTest, ChargeNonRunningThread) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  EXPECT_DEATH(s.Charge(1, Msec(10)), "CHECK failed");
}

TEST(ProtocolDeathTest, BlockRunningThread) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  // Block requires a preceding Charge.
  EXPECT_DEATH(s.Block(1), "CHECK failed");
}

TEST(ProtocolDeathTest, RemoveRunningThread) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  EXPECT_DEATH(s.RemoveThread(1), "CHECK failed");
}

TEST(ProtocolDeathTest, WakeupRunnableThread) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  EXPECT_DEATH(s.Wakeup(1), "CHECK failed");
}

TEST(ProtocolDeathTest, BlockAlreadyBlockedThread) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  s.Block(1);
  EXPECT_DEATH(s.Block(1), "CHECK failed");
}

TEST(ProtocolDeathTest, UnknownThreadId) {
  Sfs s(Config(1));
  EXPECT_DEATH(s.Block(42), "CHECK failed");
  EXPECT_DEATH(s.Charge(42, Msec(1)), "CHECK failed");
  EXPECT_DEATH((void)s.GetWeight(42), "CHECK failed");
}

TEST(ProtocolDeathTest, InvalidCpuIndex) {
  Sfs s(Config(2));
  s.AddThread(1, 1.0);
  EXPECT_DEATH(s.PickNext(2), "CHECK failed");
  EXPECT_DEATH(s.PickNext(-1), "CHECK failed");
}

TEST(ProtocolDeathTest, NegativeCharge) {
  Sfs s(Config(1));
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  EXPECT_DEATH(s.Charge(1, -5), "CHECK failed");
}

}  // namespace
}  // namespace sfs::sched
