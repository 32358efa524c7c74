// Tests for the Section 3.2 heuristic model (eval::HeuristicSfs): its audit
// against the exact algorithm, long-run proportionality, and invariance of
// its decisions under tag rebasing.  The model's own audit (Sfs's invariants
// plus its surplus order and kept last-k entries) runs after every
// operation.

#include "src/eval/heuristic_sfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace sfs::eval {
namespace {

using sched::CpuId;
using sched::SchedConfig;
using sched::ThreadId;
using sched::Weight;

SchedConfig Config(int cpus, Tick quantum = kDefaultQuantum) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  return config;
}

TEST(SfsTest, HeuristicAuditAgreesWhenKCoversQueue) {
  HeuristicSfs s(Config(2), /*k=*/64);  // covers the whole (small) queue: always exact
  common::Rng rng(41);
  for (ThreadId tid = 1; tid <= 10; ++tid) {
    s.AddThread(tid, static_cast<double>(rng.UniformInt(1, 10)));
    ASSERT_EQ(s.CheckInvariants(), "");
  }
  std::vector<std::pair<ThreadId, CpuId>> running;
  for (CpuId c = 0; c < 2; ++c) {
    running.emplace_back(s.PickNext(c), c);
  }
  for (int i = 0; i < 300; ++i) {
    const auto [victim, cpu] = running.front();
    running.erase(running.begin());
    s.Charge(victim, Msec(rng.UniformInt(1, 200)));
    ASSERT_EQ(s.CheckInvariants(), "") << "decision " << i;
    const auto audit = s.AuditHeuristic();
    EXPECT_EQ(audit.heuristic_pick, audit.exact_pick);
    running.emplace_back(s.PickNext(cpu), cpu);
    ASSERT_EQ(s.CheckInvariants(), "") << "decision " << i;
  }
}

// The model keeps the last k of the weight queue between decisions, and
// admissions, exits, blocks, wakeups and weight changes mark them stale; the
// audit after every operation holds entries not marked stale to the queue's
// true last k in (-weight, tid) order.  Weights 1 to 3, so k = 5 ends inside
// a long run of equal weight, and at least 8 runnable threads on 2 CPUs, so
// no weight is capped.
TEST(SfsTest, HeuristicKeptLastKFollowsTheWeightQueue) {
  HeuristicSfs s(Config(2), /*k=*/5);
  common::Rng rng(7);
  auto weight = [&] { return static_cast<Weight>(rng.UniformInt(1, 3)); };
  std::vector<ThreadId> live;
  ThreadId next_tid = 0;
  int runnable = 0;
  auto add = [&] {
    s.AddThread(next_tid, weight());
    live.push_back(next_tid++);
    ++runnable;
  };
  // A random live thread that is runnable (or blocked) and not running, or
  // sched::kInvalidThread.
  auto idle = [&](bool want_runnable) {
    std::vector<ThreadId> pool;
    for (const ThreadId tid : live) {
      if (s.IsRunnable(tid) == want_runnable && !s.IsRunning(tid)) {
        pool.push_back(tid);
      }
    }
    return pool.empty() ? sched::kInvalidThread : pool[rng.NextBounded(pool.size())];
  };
  while (runnable < 12) {
    add();
  }
  ThreadId running[2] = {sched::kInvalidThread, sched::kInvalidThread};
  for (int op = 0; op < 3000; ++op) {
    const auto choice = rng.UniformInt(0, 5);
    if (choice <= 1) {
      // Charge each busy CPU, pick on each free one.
      for (CpuId cpu = 0; cpu < 2; ++cpu) {
        if (running[cpu] == sched::kInvalidThread) {
          running[cpu] = s.PickNext(cpu);
        } else {
          s.Charge(running[cpu], Msec(rng.UniformInt(1, 20)));
          running[cpu] = sched::kInvalidThread;
        }
      }
    } else if (choice == 2) {
      s.SetWeight(live[rng.NextBounded(live.size())], weight());
    } else if (choice == 3 && runnable > 8) {
      if (const ThreadId tid = idle(true); tid != sched::kInvalidThread) {
        s.Block(tid);
        --runnable;
      }
    } else if (choice == 4) {
      if (const ThreadId tid = idle(false); tid != sched::kInvalidThread) {
        s.Wakeup(tid);
        ++runnable;
      }
    } else if (live.size() < 40) {
      add();
    } else if (const ThreadId tid = idle(runnable <= 8); tid != sched::kInvalidThread) {
      runnable -= s.IsRunnable(tid) ? 1 : 0;
      s.RemoveThread(tid);
      live.erase(std::find(live.begin(), live.end(), tid));
    }
    ASSERT_EQ(s.CheckInvariants(), "") << "op " << op;
  }
}

TEST(SfsEdgeTest, HeuristicModeStaysProportionalOverLongRuns) {
  HeuristicSfs s(Config(2, Msec(20)), /*k=*/10);
  std::vector<Weight> weights = {1, 2, 3, 4, 5, 6, 7, 8};
  for (ThreadId tid = 1; tid <= 8; ++tid) {
    s.AddThread(tid, weights[static_cast<std::size_t>(tid - 1)]);
  }
  std::vector<std::pair<ThreadId, CpuId>> running;
  for (CpuId c = 0; c < 2; ++c) {
    running.emplace_back(s.PickNext(c), c);
  }
  for (int i = 0; i < 20000; ++i) {
    const auto [t, c] = running.front();
    running.erase(running.begin());
    s.Charge(t, Msec(20));
    ASSERT_EQ(s.CheckInvariants(), "") << "decision " << i;
    running.emplace_back(s.PickNext(c), c);
    ASSERT_EQ(s.CheckInvariants(), "") << "decision " << i;
  }
  // Weighted service should be near-equal across threads (feasible weights):
  // total weight 36, so thread i's share = w_i/36 of 2 CPUs.
  for (ThreadId tid = 1; tid <= 8; ++tid) {
    const double got = static_cast<double>(s.TotalService(tid));
    const double expected = 20000.0 * static_cast<double>(Msec(20)) / 2.0 * 2.0 *
                            weights[static_cast<std::size_t>(tid - 1)] / 36.0;
    EXPECT_NEAR(got / expected, 1.0, 0.05) << "thread " << tid;
  }
}

TEST(SfsRebaseTest, HeuristicModelTracesMatchNeverRebasingScheduler) {
  // The model's counterpart of LongHorizonTracesMatchNeverRebasingScheduler:
  // a rebase shifts every tag but no stored surplus, and both stay exact
  // (integral increments: weights 1 and 2, 1 ms charges), so a model that
  // rebases every ~1000 weighted ticks must decide exactly as one that never
  // does, across refreshes, a long block and a wakeup.
  SchedConfig small = Config(1);
  small.tag_rebase_threshold = 1000.0;
  SchedConfig huge = small;
  huge.tag_rebase_threshold = 1e15;
  HeuristicSfs rebasing(small, /*k=*/1, /*refresh_period=*/16);
  HeuristicSfs reference(huge, /*k=*/1, /*refresh_period=*/16);
  for (HeuristicSfs* s : {&rebasing, &reference}) {
    s->AddThread(1, 2.0);
    s->AddThread(2, 1.0);
    s->AddThread(3, 1.0);
    s->AddThread(4, 1.0);
  }
  const auto step = [&](const char* phase, int i) {
    const ThreadId a = rebasing.PickNext(0);
    const ThreadId b = reference.PickNext(0);
    EXPECT_EQ(a, b) << phase << " iteration " << i;
    rebasing.Charge(a, Msec(1));
    reference.Charge(b, Msec(1));
    EXPECT_EQ(rebasing.CheckInvariants(), "") << phase << " iteration " << i;
    return a;
  };

  // Run until thread 4 has run once, then block it for the whole horizon:
  // every rebase shifts far past its finish tag.
  for (int i = 0; step("warm-up", i) != 4; ++i) {
  }
  rebasing.Block(4);
  reference.Block(4);
  for (int i = 0; i < 3000 && !HasFailure(); ++i) {
    step("blocked", i);
  }
  EXPECT_GT(rebasing.rebases(), 100);
  EXPECT_EQ(reference.rebases(), 0);

  rebasing.Wakeup(4);
  reference.Wakeup(4);
  for (int i = 0; i < 200 && !HasFailure(); ++i) {
    step("post-wakeup", i);
  }
  for (ThreadId tid = 1; tid <= 4; ++tid) {
    EXPECT_EQ(rebasing.TotalService(tid), reference.TotalService(tid)) << "thread " << tid;
  }
}

}  // namespace
}  // namespace sfs::eval
