// Protocol-level tests run against every scheduling policy in the library: the
// base-class invariants of Section 3.1's kernel hook points must hold regardless
// of policy.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "tests/sched_kind_param_name.h"

namespace sfs::sched {
namespace {

class ProtocolTest : public ::testing::TestWithParam<SchedKind> {
 protected:
  std::unique_ptr<Scheduler> Make(int cpus = 2) {
    SchedConfig config;
    config.num_cpus = cpus;
    return CreateScheduler(GetParam(), config);
  }
};

TEST_P(ProtocolTest, NameIsNonEmpty) {
  auto s = Make();
  EXPECT_FALSE(s->name().empty());
}

TEST_P(ProtocolTest, AddThreadMakesRunnable) {
  auto s = Make();
  s->AddThread(1, 1.0);
  EXPECT_TRUE(s->Contains(1));
  EXPECT_TRUE(s->IsRunnable(1));
  EXPECT_FALSE(s->IsRunning(1));
  EXPECT_EQ(s->runnable_count(), 1);
  EXPECT_EQ(s->thread_count(), 1);
}

TEST_P(ProtocolTest, PickNextReturnsOnlyRunnableThread) {
  auto s = Make();
  s->AddThread(1, 1.0);
  EXPECT_EQ(s->PickNext(0), 1);
  EXPECT_TRUE(s->IsRunning(1));
  EXPECT_EQ(s->RunningOn(0), 1);
}

TEST_P(ProtocolTest, PickNextEmptyReturnsInvalid) {
  auto s = Make();
  EXPECT_EQ(s->PickNext(0), kInvalidThread);
}

TEST_P(ProtocolTest, RunningThreadNotPickedOnOtherCpu) {
  auto s = Make();
  s->AddThread(1, 1.0);
  EXPECT_EQ(s->PickNext(0), 1);
  EXPECT_EQ(s->PickNext(1), kInvalidThread);  // only thread is already running
}

TEST_P(ProtocolTest, TwoThreadsRunConcurrently) {
  auto s = Make();
  s->AddThread(1, 1.0);
  s->AddThread(2, 1.0);
  const ThreadId first = s->PickNext(0);
  const ThreadId second = s->PickNext(1);
  EXPECT_NE(first, kInvalidThread);
  EXPECT_NE(second, kInvalidThread);
  EXPECT_NE(first, second);
}

TEST_P(ProtocolTest, ChargeFreesTheCpu) {
  auto s = Make();
  s->AddThread(1, 1.0);
  ASSERT_EQ(s->PickNext(0), 1);
  s->Charge(1, Msec(100));
  EXPECT_FALSE(s->IsRunning(1));
  EXPECT_EQ(s->RunningOn(0), kInvalidThread);
  EXPECT_EQ(s->TotalService(1), Msec(100));
  // Still runnable: can be picked again.
  EXPECT_EQ(s->PickNext(0), 1);
}

TEST_P(ProtocolTest, ServiceAccumulatesAcrossQuanta) {
  auto s = Make();
  s->AddThread(1, 1.0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(s->PickNext(0), 1);
    s->Charge(1, Msec(10));
  }
  EXPECT_EQ(s->TotalService(1), Msec(50));
}

TEST_P(ProtocolTest, BlockAndWakeup) {
  auto s = Make();
  s->AddThread(1, 1.0);
  s->AddThread(2, 1.0);
  s->Block(1);
  EXPECT_FALSE(s->IsRunnable(1));
  EXPECT_EQ(s->runnable_count(), 1);
  // Blocked thread is never picked.
  EXPECT_EQ(s->PickNext(0), 2);
  s->Wakeup(1);
  EXPECT_TRUE(s->IsRunnable(1));
  EXPECT_EQ(s->PickNext(1), 1);
}

TEST_P(ProtocolTest, RemoveRunnableThread) {
  auto s = Make();
  s->AddThread(1, 1.0);
  s->AddThread(2, 1.0);
  s->RemoveThread(1);
  EXPECT_FALSE(s->Contains(1));
  EXPECT_EQ(s->thread_count(), 1);
  EXPECT_EQ(s->PickNext(0), 2);
}

TEST_P(ProtocolTest, RemoveBlockedThread) {
  auto s = Make();
  s->AddThread(1, 1.0);
  s->Block(1);
  s->RemoveThread(1);
  EXPECT_FALSE(s->Contains(1));
  EXPECT_EQ(s->runnable_count(), 0);
}

TEST_P(ProtocolTest, SetWeightIsVisible) {
  auto s = Make();
  s->AddThread(1, 1.0);
  s->SetWeight(1, 5.0);
  EXPECT_DOUBLE_EQ(s->GetWeight(1), 5.0);
}

TEST_P(ProtocolTest, QuantumForIsPositive) {
  auto s = Make();
  s->AddThread(1, 1.0);
  EXPECT_GT(s->QuantumFor(1), 0);
}

TEST_P(ProtocolTest, WorkConservingUnderChurn) {
  // Under any interleaving of lifecycle events, PickNext must hand out a thread
  // whenever one is eligible (work conservation) and never a running/blocked one.
  auto s = Make(2);
  common::Rng rng(99);
  std::set<ThreadId> known;
  std::set<ThreadId> blocked;
  std::vector<std::pair<ThreadId, CpuId>> running;
  std::vector<CpuId> free_cpus = {0, 1};
  ThreadId next_tid = 1;

  auto is_running = [&](ThreadId tid) {
    for (const auto& [rtid, cpu] : running) {
      if (rtid == tid) {
        return true;
      }
    }
    return false;
  };

  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.NextBounded(5);
    if (op == 0 && known.size() < 20) {
      const ThreadId tid = next_tid++;
      s->AddThread(tid, static_cast<double>(rng.UniformInt(1, 10)));
      known.insert(tid);
    } else if (op == 1 && !known.empty()) {
      // Remove a random non-running thread.
      for (ThreadId tid : known) {
        if (!is_running(tid)) {
          s->RemoveThread(tid);
          known.erase(tid);
          blocked.erase(tid);
          break;
        }
      }
    } else if (op == 2 && !known.empty()) {
      // Block a random runnable, non-running thread.
      for (ThreadId tid : known) {
        if (blocked.count(tid) == 0 && !is_running(tid)) {
          s->Block(tid);
          blocked.insert(tid);
          break;
        }
      }
    } else if (op == 3 && !blocked.empty()) {
      const ThreadId tid = *blocked.begin();
      s->Wakeup(tid);
      blocked.erase(tid);
    } else {
      // Dispatch cycle on a free CPU, then charge.
      if (!free_cpus.empty()) {
        const CpuId cpu = free_cpus.back();
        const ThreadId picked = s->PickNext(cpu);
        const int eligible = s->runnable_count() - static_cast<int>(running.size());
        if (eligible > 0) {
          ASSERT_NE(picked, kInvalidThread) << "not work conserving at step " << step;
        }
        if (picked != kInvalidThread) {
          ASSERT_TRUE(s->IsRunnable(picked));
          ASSERT_EQ(blocked.count(picked), 0u);
          running.emplace_back(picked, cpu);
          free_cpus.pop_back();
        }
      } else {
        const auto [victim, cpu] = running.front();
        running.erase(running.begin());
        s->Charge(victim, Msec(rng.UniformInt(1, 200)));
        free_cpus.push_back(cpu);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ProtocolTest,
    ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq, SchedKind::kWfq,
                      SchedKind::kTimeshare),
    SchedKindParamName);

}  // namespace
}  // namespace sfs::sched
