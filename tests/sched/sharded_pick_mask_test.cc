// Differential test of Scheduler::PickMask on the sharded layer: a driver
// that skips every pick whose mask bit is clear (as sim::Engine does) must
// be indistinguishable from one that picks on every idle CPU.  Two identical
// ShardedSchedulers consume one fuzzed lifecycle; A calls PickNext on every
// CPU it is offered, B only where its mask allows.  Every pick B skipped must
// have come up empty on A, and the decision streams, every tag, both shard
// bitmaps and the shards' rebase counts must stay equal.  A small
// tag_rebase_threshold makes empty shards rebase on their next pick, the one
// side effect an empty pick can have; CheckInvariants runs on both after
// every operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/sfq.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::sched {
namespace {

// Read access to a shard's entities, whatever its policy.
class EntityReader {
 public:
  virtual const Entity& Get(ThreadId tid) const = 0;

 protected:
  ~EntityReader() = default;
};

template <typename Policy>
class Readable : public Policy, public EntityReader {
 public:
  using Policy::Policy;
  const Entity& Get(ThreadId tid) const override { return this->FindEntity(tid); }
};

struct PolicyCase {
  const char* name;
  ShardedScheduler::ShardFactory factory;
};

template <typename Policy>
PolicyCase Case(const char* name) {
  return {name, [](const SchedConfig& config) {
            return std::make_unique<Readable<Policy>>(config);
          }};
}

const std::vector<PolicyCase>& Policies() {
  static const std::vector<PolicyCase> policies = {Case<Sfs>("sfs"), Case<Sfq>("sfq")};
  return policies;
}

bool MaskAllows(const Scheduler& s, CpuId cpu) {
  return ((s.PickMask(static_cast<std::size_t>(cpu) / 64) >> (cpu % 64)) & 1) != 0;
}

std::int64_t Rebases(const ShardedScheduler& s) {
  std::int64_t total = 0;
  for (CpuId cpu = 0; cpu < s.num_cpus(); ++cpu) {
    if (const auto* sfs = dynamic_cast<const Sfs*>(&s.shard(cpu))) {
      total += sfs->rebases();
    }
  }
  return total;
}

void ExpectSameState(const ShardedScheduler& a, const ShardedScheduler& b,
                     const std::vector<ThreadId>& live) {
  ASSERT_EQ(a.CheckInvariants(), "");
  ASSERT_EQ(b.CheckInvariants(), "");
  for (CpuId cpu = 0; cpu < a.num_cpus(); ++cpu) {
    ASSERT_EQ(a.Stealable(cpu), b.Stealable(cpu)) << "cpu " << cpu;
    ASSERT_EQ(a.RunnableShard(cpu), b.RunnableShard(cpu)) << "cpu " << cpu;
    ASSERT_EQ(a.shard(cpu).LocalVirtualTime(), b.shard(cpu).LocalVirtualTime()) << "cpu " << cpu;
    ASSERT_EQ(a.RunningOn(cpu), b.RunningOn(cpu)) << "cpu " << cpu;
  }
  for (std::size_t word = 0; word * 64 < static_cast<std::size_t>(a.num_cpus()); ++word) {
    ASSERT_EQ(a.PickMask(word), b.PickMask(word)) << "word " << word;
  }
  ASSERT_EQ(Rebases(a), Rebases(b));
  ASSERT_EQ(a.steals(), b.steals());
  ASSERT_EQ(a.shard_migrations(), b.shard_migrations());
  for (const ThreadId tid : live) {
    const CpuId home = a.ShardOf(tid);
    ASSERT_EQ(home, b.ShardOf(tid)) << "tid " << tid;
    const Entity& ea = dynamic_cast<const EntityReader&>(a.shard(home)).Get(tid);
    const Entity& eb = dynamic_cast<const EntityReader&>(b.shard(home)).Get(tid);
    ASSERT_EQ(ea.start_tag(), eb.start_tag()) << "tid " << tid;
    ASSERT_EQ(ea.finish_tag(), eb.finish_tag()) << "tid " << tid;
    ASSERT_EQ(ea.phi(), eb.phi()) << "tid " << tid;
    ASSERT_EQ(ea.runnable, eb.runnable) << "tid " << tid;
    ASSERT_EQ(ea.running, eb.running) << "tid " << tid;
  }
}

struct Counts {
  std::int64_t skipped = 0;       // picks B skipped
  std::int64_t empty_acting = 0;  // empty picks B made because its mask allowed them
  std::int64_t rebases = 0;
};

ThreadId Take(common::Rng& rng, std::vector<ThreadId>& pool) {
  const auto i = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
  const ThreadId tid = pool[i];
  pool[i] = pool.back();
  pool.pop_back();
  return tid;
}

void Fuzz(const PolicyCase& policy, bool steal, int rebalance, double coupling, int cpus,
          std::uint64_t seed, int ops, Counts& counts) {
  common::Rng rng(seed);
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = Msec(10);
  config.shard_steal = steal ? ShardStealPolicy::kMaxSurplus : ShardStealPolicy::kNone;
  config.shard_rebalance_period = rebalance;
  config.shard_coupling = coupling;
  // A few charges carry a shard's virtual time past this, so shards whose
  // last thread blocks are left due to rebase on their next (empty) pick.
  config.tag_rebase_threshold = static_cast<double>(Msec(30));
  ShardedScheduler a(config, policy.factory);
  ShardedScheduler b(config, policy.factory);

  std::vector<ThreadId> ready;  // runnable, not running
  std::vector<ThreadId> blocked;
  std::vector<ThreadId> live;
  std::vector<ThreadId> running(static_cast<std::size_t>(cpus), kInvalidThread);
  ThreadId next_tid = 0;
  const auto weight = [&rng] { return static_cast<Weight>(rng.UniformInt(1, 20)); };
  const auto admit = [&] {
    const CpuId home = rng.Bernoulli(0.6)
                           ? static_cast<CpuId>(rng.UniformInt(0, std::max(0, cpus / 3 - 1)))
                           : kInvalidCpu;
    const Weight w = weight();
    a.AddThread(next_tid, w, home);
    b.AddThread(next_tid, w, home);
    ready.push_back(next_tid);
    live.push_back(next_tid++);
  };
  const auto forget = [&](ThreadId tid) { live.erase(std::find(live.begin(), live.end(), tid)); };
  // One offered pick: A always picks, B only where its mask allows.
  const auto offer = [&](CpuId cpu) {
    const std::int64_t rebases_before = Rebases(b);
    const ThreadId got_a = a.PickNext(cpu);
    ThreadId got_b = kInvalidThread;
    if (MaskAllows(b, cpu)) {
      got_b = b.PickNext(cpu);
      if (got_b == kInvalidThread) {
        ++counts.empty_acting;
        counts.rebases += Rebases(b) - rebases_before;
      }
    } else {
      ++counts.skipped;
      ASSERT_EQ(got_a, kInvalidThread) << "B skipped a pick that dispatched on A, cpu " << cpu;
    }
    ASSERT_EQ(got_a, got_b) << "cpu " << cpu;
    if (got_a != kInvalidThread) {
      running[static_cast<std::size_t>(cpu)] = got_a;
      ready.erase(std::find(ready.begin(), ready.end(), got_a));
    }
  };
  const auto idle_cpus = [&] {
    std::vector<CpuId> idle;
    for (CpuId cpu = 0; cpu < cpus; ++cpu) {
      if (running[static_cast<std::size_t>(cpu)] == kInvalidThread) {
        idle.push_back(cpu);
      }
    }
    return idle;
  };
  const auto busy_cpus = [&] {
    std::vector<CpuId> busy;
    for (CpuId cpu = 0; cpu < cpus; ++cpu) {
      if (running[static_cast<std::size_t>(cpu)] != kInvalidThread) {
        busy.push_back(cpu);
      }
    }
    return busy;
  };
  const auto any = [&rng](const std::vector<CpuId>& cpus_in) {
    return cpus_in[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(cpus_in.size()) - 1))];
  };

  for (int i = 0; i < cpus + 4; ++i) {
    admit();
  }
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(testing::Message() << policy.name << " seed " << seed << " op " << op);
    const auto choice = rng.UniformInt(0, 99);
    if (choice < 6) {
      admit();
    } else if (choice < 20 && !ready.empty()) {
      const ThreadId tid = Take(rng, ready);
      a.Block(tid);
      b.Block(tid);
      blocked.push_back(tid);
    } else if (choice < 34 && !blocked.empty()) {
      const ThreadId tid = Take(rng, blocked);
      a.Wakeup(tid);
      b.Wakeup(tid);
      ready.push_back(tid);
    } else if (choice < 44) {
      // The engine's placement scan: every idle CPU, ascending.
      for (const CpuId cpu : idle_cpus()) {
        ASSERT_NO_FATAL_FAILURE(offer(cpu));
      }
    } else if (choice < 62) {
      if (const std::vector<CpuId> idle = idle_cpus(); !idle.empty()) {
        ASSERT_NO_FATAL_FAILURE(offer(any(idle)));
      }
    } else if (choice < 88) {
      if (const std::vector<CpuId> busy = busy_cpus(); !busy.empty()) {
        const CpuId cpu = any(busy);
        const ThreadId tid = running[static_cast<std::size_t>(cpu)];
        running[static_cast<std::size_t>(cpu)] = kInvalidThread;
        const Tick ran = Msec(rng.UniformInt(0, 20));
        a.Charge(tid, ran);
        b.Charge(tid, ran);
        const auto next = rng.UniformInt(0, 9);
        if (next < 4) {
          a.Block(tid);
          b.Block(tid);
          blocked.push_back(tid);
        } else if (next < 5) {
          a.RemoveThread(tid);
          b.RemoveThread(tid);
          forget(tid);
        } else {
          ready.push_back(tid);
        }
      }
    } else if (choice < 93) {
      std::vector<ThreadId>& pool = rng.Bernoulli(0.5) ? ready : blocked;
      if (!pool.empty()) {
        const ThreadId tid = Take(rng, pool);
        a.RemoveThread(tid);
        b.RemoveThread(tid);
        forget(tid);
      }
    } else {
      std::vector<ThreadId>& pool = rng.Bernoulli(0.7) ? ready : blocked;
      if (!pool.empty()) {
        const ThreadId tid = pool[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
        const Weight w = weight();
        a.SetWeight(tid, w);
        b.SetWeight(tid, w);
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(a, b, live));
  }
}

using MaskParam = std::tuple<bool, int, double, int>;  // steal, rebalance, coupling, p

class ShardedPickMaskTest : public ::testing::TestWithParam<MaskParam> {};

TEST_P(ShardedPickMaskTest, SkippedPicksAreNoOps) {
  const auto [steal, rebalance, coupling, cpus] = GetParam();
  // Fewer operations at large p: each one compares every shard.
  const int ops = cpus <= 2 ? 1500 : 400;
  for (const PolicyCase& policy : Policies()) {
    Counts counts;
    for (const std::uint64_t seed : {1ULL, 42ULL, 7919ULL}) {
      ASSERT_NO_FATAL_FAILURE(
          Fuzz(policy, steal, rebalance, coupling, cpus, seed, ops, counts));
    }
    if (rebalance == 0) {
      // The mask did its job (it skipped picks) and the rebase exception
      // was exercised (an empty shard's pick was offered and rebased).
      EXPECT_GT(counts.skipped, 0) << policy.name;
      if (std::string(policy.name) == "sfs") {
        EXPECT_GT(counts.rebases, 0) << policy.name;
      }
    } else {
      EXPECT_EQ(counts.skipped, 0) << policy.name;  // every pick may act
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ShardedPickMaskTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 7), ::testing::Values(0.0, 1.0),
                       ::testing::Values(1, 2, 63, 64, 65, 130)),
    [](const ::testing::TestParamInfo<MaskParam>& info) {
      return std::string(std::get<0>(info.param) ? "steal" : "nosteal") + "_rebalance" +
             std::to_string(std::get<1>(info.param)) + "_coupling" +
             std::to_string(static_cast<int>(std::get<2>(info.param))) + "_p" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace sfs::sched
