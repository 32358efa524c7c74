// sfs::runtime tests: the wake path (each dispatcher times the wakeups of the
// threads it blocked), targeted parking, pinning, and the wake-latency
// instrumentation.  The wake-stress cases and the wake-thread test double as
// the TSan coverage of the wake path (CI runs this suite under
// ThreadSanitizer).

#include "src/runtime/executor.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/mutex.h"
#include "src/obs/trace.h"
#include "src/runtime/affinity.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::runtime {
namespace {

sched::SchedConfig Config(int cpus) {
  sched::SchedConfig config;
  config.num_cpus = cpus;
  return config;
}

void SpinFor(Tick us) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

struct RunStats {
  std::int64_t wakeups = 0;
  std::int64_t kicks = 0;
  std::uint64_t wake_applies = 0;
  std::uint64_t wake_dispatches = 0;
  Tick elapsed = 0;
};

// Blocking mix on sharded SFS: spinners keep shards busy while blockers
// exercise the wake path end to end.
RunStats RunBlockingMix(const Executor::Config& exec_config, int cpus) {
  sched::Sharded<sched::Sfs> scheduler(Config(cpus));
  Executor executor(scheduler, exec_config);
  for (sched::ThreadId tid = 0; tid < 2; ++tid) {
    auto units = std::make_shared<std::atomic<int>>(60);
    executor.AddTask(tid, 1.0 + tid, [units] {
      SpinFor(40);
      return units->fetch_sub(1) > 1;
    });
  }
  for (sched::ThreadId tid = 2; tid < 6; ++tid) {
    auto rounds = std::make_shared<std::atomic<int>>(8);
    executor.AddTask(tid, 2.0, [rounds, tid]() -> Executor::WorkResult {
      SpinFor(60);
      if (rounds->fetch_sub(1) <= 1) {
        return Executor::WorkResult::Done();
      }
      return Executor::WorkResult::Block(Usec(200) * (1 + tid % 3));
    });
  }
  RunStats stats;
  stats.elapsed = executor.Run(Sec(5));
  stats.wakeups = executor.wakeups();
  stats.kicks = executor.kicks();
  stats.wake_applies = executor.wake_apply_latencies().count();
  stats.wake_dispatches = executor.wake_to_dispatch_latencies().count();
  for (sched::ThreadId tid = 0; tid < 6; ++tid) {
    EXPECT_GT(executor.CpuTime(tid), 0) << "tid " << tid;
  }
  return stats;
}

TEST(RuntimeTest, TargetedWakePathCompletesAndInstruments) {
  Executor::Config config;
  config.quantum = Msec(2);
  const RunStats stats = RunBlockingMix(config, 4);
  // 4 blockers x 7 blocking rounds, each applied by its home dispatcher.
  EXPECT_GE(stats.wakeups, 4);
  EXPECT_EQ(stats.wake_applies, static_cast<std::uint64_t>(stats.wakeups));
  // Every wakeup was eventually granted (tasks all ran to completion), so the
  // wake-to-dispatch histogram sampled each one exactly once.
  EXPECT_EQ(stats.wake_dispatches, static_cast<std::uint64_t>(stats.wakeups));
  EXPECT_GT(stats.kicks, 0);
  EXPECT_LT(stats.elapsed, Sec(5));  // finished, not wall-limited
}

TEST(RuntimeTest, PinnedDispatchersComplete) {
  Executor::Config config;
  config.quantum = Msec(2);
  config.pin_dispatchers = true;
  const RunStats stats = RunBlockingMix(config, 2);
  EXPECT_GE(stats.wakeups, 4);
  EXPECT_GT(HardwareCores(), 0);
}

// Work conservation with every dispatcher parked: one blocked thread on an
// otherwise idle machine must be re-dispatched promptly after its wake
// deadline.  The home dispatcher's park deadline, not a kick and not the
// quantum-long idle-recheck backstop, delivers it — the generous bound still
// catches a park that ignores the wake deadline.
TEST(RuntimeTest, TargetedKickRedispatchesParkedCpus) {
  sched::Sharded<sched::Sfs> scheduler(Config(4));
  Executor::Config config;
  // A parked CPU rechecks after one quantum, so a long one means only the
  // wake deadline can end the park fast; the task blocks after 30us and never
  // uses it up.
  config.quantum = Msec(500);
  Executor executor(scheduler, config);
  std::atomic<int> rounds{5};
  executor.AddTask(7, 1.0, [&rounds]() -> Executor::WorkResult {
    SpinFor(30);
    if (rounds.fetch_sub(1) <= 1) {
      return Executor::WorkResult::Done();
    }
    return Executor::WorkResult::Block(Msec(1));
  });
  const auto start = std::chrono::steady_clock::now();
  executor.Run(Sec(10));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // 4 blocks x 1ms sleep + work; anywhere near 500ms means a wakeup waited
  // for the idle-recheck backstop instead of the park deadline.
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
  EXPECT_EQ(executor.wakeups(), 4);
}

// A wakeup costs no kick: the dispatcher that blocked the thread parks until
// the wake deadline and applies the wakeup itself.  One CPU, one blocker, a
// quantum far longer than the run, so only the park deadline can end the
// park in time; the only kicks are the shutdown ones.
TEST(RuntimeTest, WakeupsNeedNoKick) {
  sched::Sharded<sched::Sfs> scheduler(Config(1));
  Executor::Config config;
  config.quantum = Msec(500);
  Executor executor(scheduler, config);
  std::atomic<int> rounds{21};
  executor.AddTask(0, 1.0, [&rounds]() -> Executor::WorkResult {
    if (rounds.fetch_sub(1) <= 1) {
      return Executor::WorkResult::Done();
    }
    return Executor::WorkResult::Block(Usec(300));
  });
  const auto start = std::chrono::steady_clock::now();
  executor.Run(Sec(10));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(executor.wakeups(), 20);
  EXPECT_LT(executor.kicks(), executor.wakeups());
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
}

// Sharded SFS that records which OS thread applies each wakeup (OnWoken, with
// the woken thread's home CPU) and which CPUs each OS thread picks for.
class WakeThreadRecorder : public sched::Sharded<sched::Sfs> {
 public:
  using Sharded::Sharded;

  std::vector<std::pair<std::thread::id, sched::CpuId>> wakes() const {
    common::MutexLock lk(mu_);
    return wakes_;
  }
  std::map<std::thread::id, std::set<sched::CpuId>> picks() const {
    common::MutexLock lk(mu_);
    return picks_;
  }

 protected:
  void OnWoken(sched::Entity& e) override {
    {
      common::MutexLock lk(mu_);
      wakes_.emplace_back(std::this_thread::get_id(), HomeCpu(e.tid));
    }
    Sharded::OnWoken(e);
  }
  sched::Entity* PickNextEntity(sched::CpuId cpu) override {
    {
      common::MutexLock lk(mu_);
      picks_[std::this_thread::get_id()].insert(cpu);
    }
    return Sharded::PickNextEntity(cpu);
  }

 private:
  mutable common::Mutex mu_;
  std::vector<std::pair<std::thread::id, sched::CpuId>> wakes_ SFS_GUARDED_BY(mu_);
  std::map<std::thread::id, std::set<sched::CpuId>> picks_ SFS_GUARDED_BY(mu_);
};

// One wake path: every wakeup is applied by the dispatcher of the woken
// thread's home CPU (the thread that also picks for that CPU), and attaching a
// trace does not change that.
TEST(RuntimeTest, WakeupsApplyOnTheHomeDispatcher) {
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    WakeThreadRecorder scheduler(Config(2));
    obs::Trace trace(2, /*capacity_per_ring=*/1024, obs::Trace::Clock::kWallNanos);
    Executor::Config config;
    config.quantum = Msec(1);
    config.trace = traced ? &trace : nullptr;
    Executor executor(scheduler, config);
    constexpr sched::ThreadId kBlockers = 6;
    constexpr int kRounds = 10;
    std::atomic<int> live{kBlockers};
    // A spinner keeps one CPU busy (mid-quantum wakeups) until the blockers
    // are done.
    executor.AddTask(0, 1.0, [&live] {
      SpinFor(20);
      return live.load() > 0;
    });
    for (sched::ThreadId tid = 1; tid <= kBlockers; ++tid) {
      auto rounds = std::make_shared<std::atomic<int>>(kRounds);
      executor.AddTask(tid, 1.0 + tid % 2, [rounds, tid, &live]() -> Executor::WorkResult {
        SpinFor(20);
        if (rounds->fetch_sub(1) <= 1) {
          live.fetch_sub(1);
          return Executor::WorkResult::Done();
        }
        return Executor::WorkResult::Block(Usec(100) * (1 + tid % 3));
      });
    }
    EXPECT_LT(executor.Run(Sec(10)), Sec(10));

    const auto wakes = scheduler.wakes();
    const auto picks = scheduler.picks();
    EXPECT_EQ(static_cast<std::int64_t>(wakes.size()), kBlockers * (kRounds - 1));
    for (const auto& [thread, home] : wakes) {
      const auto it = picks.find(thread);
      ASSERT_TRUE(it != picks.end()) << "a wakeup ran on a thread that never picks";
      EXPECT_TRUE(it->second.count(home) != 0)
          << "a wakeup homed on cpu " << home << " ran on another CPU's dispatcher";
    }
    EXPECT_EQ(executor.wakeups(), static_cast<std::int64_t>(wakes.size()));
    EXPECT_EQ(executor.metrics().GetHistogram("exec/wake_apply_ns").Snapshot().count(),
              static_cast<std::uint64_t>(executor.wakeups()));
  }
}

// Wake-path stress for TSan: many short blockers hammering the block -> wake
// deadline -> Wakeup -> grant pipeline across shards, concurrently with
// spinners being preempted.
TEST(RuntimeTest, WakeStress) {
  sched::Sharded<sched::Sfs> scheduler(Config(4));
  Executor::Config config;
  config.quantum = Msec(1);
  Executor executor(scheduler, config);
  for (sched::ThreadId tid = 0; tid < 12; ++tid) {
    auto rounds = std::make_shared<std::atomic<int>>(20);
    executor.AddTask(tid, 1.0 + (tid % 3), [rounds, tid]() -> Executor::WorkResult {
      SpinFor(20);
      if (rounds->fetch_sub(1) <= 1) {
        return Executor::WorkResult::Done();
      }
      if (tid % 2 == 0) {
        return Executor::WorkResult::Block(Usec(100) * (1 + tid % 4));
      }
      return Executor::WorkResult::Continue();
    });
  }
  const Tick elapsed = executor.Run(Sec(10));
  EXPECT_LT(elapsed, Sec(10));
  EXPECT_GT(executor.wakeups(), 0);
  for (sched::ThreadId tid = 0; tid < 12; ++tid) {
    EXPECT_GT(executor.CpuTime(tid), 0) << "tid " << tid;
  }
}

// Wake-queue stress: 64 blockers re-Block with short, staggered deadlines on
// two CPUs, so each dispatcher's own wake queue grows — and reallocates —
// between the waits it times by the queue's earliest deadline.  Each wait
// must use a deadline copied by value, not a reference into the queue (the
// sanitizer build catches the latter as a use-after-free), and every one of
// the wakeups must be applied.
TEST(RuntimeTest, TimerWaitSurvivesWakeQueueGrowth) {
  sched::Sharded<sched::Sfs> scheduler(Config(2));
  Executor::Config config;
  config.quantum = Msec(1);
  Executor executor(scheduler, config);
  constexpr sched::ThreadId kBlockers = 64;
  constexpr int kRounds = 6;
  for (sched::ThreadId tid = 0; tid < kBlockers; ++tid) {
    auto rounds = std::make_shared<std::atomic<int>>(kRounds);
    executor.AddTask(tid, 1.0, [rounds, tid]() -> Executor::WorkResult {
      SpinFor(5);
      if (rounds->fetch_sub(1) <= 1) {
        return Executor::WorkResult::Done();
      }
      return Executor::WorkResult::Block(Usec(300) + Usec(20) * (tid % 16));
    });
  }
  const Tick elapsed = executor.Run(Sec(10));
  EXPECT_LT(elapsed, Sec(10));
  EXPECT_EQ(executor.wakeups(), kBlockers * (kRounds - 1));
  for (sched::ThreadId tid = 0; tid < kBlockers; ++tid) {
    EXPECT_GT(executor.CpuTime(tid), 0) << "tid " << tid;
  }
}

}  // namespace
}  // namespace sfs::runtime
