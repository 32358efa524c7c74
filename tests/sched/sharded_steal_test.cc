// Differential test of the sharded layer's steal selection
// (ShardedScheduler::FindStealVictim) against the exhaustive reference it
// replaced: lock every peer shard, walk every entity it knows (blocked ones
// included), nominate each busy shard's runnable, not-running thread with the
// highest migration score phi * (S - v), take the best nominee and apply the
// affinity rule.  The production path visits only shards whose stealable
// bit is set and scans only their weight queues; single-threaded it must
// choose the same victim from the same shard after every operation of a
// fuzzed lifecycle, every bit must equal `runnable_count() >= 2`, and the
// host's CheckInvariants audit must pass.  p > 64 spans several bitmap words.
// After every operation, steals and rebalances included, each SFS shard's
// LocalVirtualTime() must also equal a brute-force least start tag over its
// runnable threads: Sfs keeps v as it files and unfiles, and a coupled
// migrant (shard_coupling > 0) may be filed behind it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/sfq.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::sched {
namespace {

// Every entity a shard knows, in any state: what the reference scans.
class EntityWalker {
 public:
  virtual void Walk(const std::function<void(const Entity&)>& fn) = 0;

 protected:
  ~EntityWalker() = default;
};

template <typename Policy>
class Walkable : public Policy, public EntityWalker {
 public:
  using Policy::Policy;
  void Walk(const std::function<void(const Entity&)>& fn) override {
    this->ForEachEntity([&fn](Entity& e) { fn(e); });
  }
};

class StealProbe : public ShardedScheduler {
 public:
  using ShardedScheduler::FindStealVictim;
  using ShardedScheduler::ShardedScheduler;
  using ShardedScheduler::StealVictim;

  CpuId LastCpu(ThreadId tid) const { return FindEntity(tid).last_cpu; }
};

// Reference nominee: the highest-scoring runnable, not-running entity of the
// whole entity table, ties toward the lowest tid.
const Entity* ReferenceNominee(GpsSchedulerBase& shard, double max_weight, double* score) {
  const double v = shard.LocalVirtualTime();
  const Entity* best = nullptr;
  double best_score = 0.0;
  dynamic_cast<EntityWalker&>(shard).Walk([&](const Entity& e) {
    if (!e.runnable || e.running || (max_weight > 0.0 && e.weight() >= max_weight)) {
      return;
    }
    const double entity_score = e.phi() * (e.start_tag() - v);
    if (best == nullptr || entity_score > best_score ||
        (entity_score == best_score && e.tid < best->tid)) {
      best = &e;
      best_score = entity_score;
    }
  });
  if (best != nullptr) {
    *score = best_score;
  }
  return best;
}

StealProbe::StealVictim ReferenceVictim(StealProbe& s, CpuId thief) {
  StealProbe::StealVictim best;
  double best_score = 0.0;
  StealProbe::StealVictim affine;
  double affine_score = 0.0;
  for (CpuId source = 0; source < s.num_cpus(); ++source) {
    if (source == thief) {
      continue;
    }
    const Scheduler::DispatchGuard lock = s.LockDispatch(source);
    if (s.RunningOn(source) == kInvalidThread) {
      continue;
    }
    double score = 0.0;
    const Entity* candidate = ReferenceNominee(s.shard(source), 0.0, &score);
    if (candidate == nullptr) {
      continue;
    }
    if (best.tid == kInvalidThread || score > best_score ||
        (score == best_score && candidate->tid < best.tid)) {
      best = {candidate->tid, source};
      best_score = score;
    }
    if (s.LastCpu(candidate->tid) == thief &&
        (affine.tid == kInvalidThread || score > affine_score ||
         (score == affine_score && candidate->tid < affine.tid))) {
      affine = {candidate->tid, source};
      affine_score = score;
    }
  }
  if (affine.tid != kInvalidThread && affine.tid != best.tid &&
      affine_score + static_cast<double>(s.config().affinity_tolerance) >= best_score) {
    return affine;
  }
  return best;
}

struct PolicyCase {
  const char* name;
  ShardedScheduler::ShardFactory factory;
};

template <typename Policy>
PolicyCase Case(const char* name) {
  return {name, [](const SchedConfig& config) {
            return std::make_unique<Walkable<Policy>>(config);
          }};
}

const std::vector<PolicyCase>& Policies() {
  static const std::vector<PolicyCase> policies = {Case<Sfs>("sfs"), Case<Sfq>("sfq")};
  return policies;
}

// Bits, per-shard nominees (with and without a weight cap) and every thief's
// steal victim against the reference.
void CheckAgainstReference(StealProbe& s, common::Rng& rng) {
  ASSERT_EQ(s.CheckInvariants(), "");
  for (CpuId cpu = 0; cpu < s.num_cpus(); ++cpu) {
    ASSERT_EQ(s.Stealable(cpu), s.shard(cpu).runnable_count() >= 2) << "cpu " << cpu;
    for (const double max_weight : {0.0, static_cast<double>(rng.UniformInt(1, 20))}) {
      double want_score = 0.0;
      const Entity* want = ReferenceNominee(s.shard(cpu), max_weight, &want_score);
      double got_score = 0.0;
      const Entity* got = s.shard(cpu).PickMigrationCandidate(max_weight, &got_score);
      ASSERT_EQ(got == nullptr ? kInvalidThread : got->tid,
                want == nullptr ? kInvalidThread : want->tid)
          << "cpu " << cpu << " max_weight " << max_weight;
      if (want != nullptr) {
        ASSERT_EQ(got_score, want_score) << "cpu " << cpu;
      }
    }
  }
  for (CpuId thief = 0; thief < s.num_cpus(); ++thief) {
    const StealProbe::StealVictim want = ReferenceVictim(s, thief);
    const StealProbe::StealVictim got = s.FindStealVictim(thief);
    ASSERT_EQ(got.tid, want.tid) << "thief " << thief;
    ASSERT_EQ(got.shard, want.shard) << "thief " << thief;
  }
}

// Each SFS shard holding runnable threads reports their least start tag as
// its virtual time.  `v` holds each such shard's v from the previous call
// (NaN for an empty shard); a v that fell while its shard stayed non-empty
// was lowered by a migrant filed behind it, counted in `lowered`.
void CheckShardVirtualTimes(StealProbe& s, std::vector<double>& v, std::int64_t& lowered) {
  for (CpuId cpu = 0; cpu < s.num_cpus(); ++cpu) {
    GpsSchedulerBase& shard = s.shard(cpu);
    if (dynamic_cast<const Sfs*>(&shard) == nullptr) {
      return;
    }
    double least = std::numeric_limits<double>::quiet_NaN();
    dynamic_cast<EntityWalker&>(shard).Walk([&least](const Entity& e) {
      if (e.runnable && !(e.start_tag() >= least)) {
        least = e.start_tag();
      }
    });
    double& last = v[static_cast<std::size_t>(cpu)];
    if (!std::isnan(least)) {
      ASSERT_EQ(shard.LocalVirtualTime(), least) << "cpu " << cpu;
      lowered += least < last ? 1 : 0;
    }
    last = least;
  }
}

ThreadId Take(common::Rng& rng, std::vector<ThreadId>& pool) {
  const auto i = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
  const ThreadId tid = pool[i];
  pool[i] = pool.back();
  pool.pop_back();
  return tid;
}

// Admit/block/wake/pick/charge/remove/set-weight fuzz; the reference check
// runs after every operation.  With rebalancing off, a pick on a CPU whose
// shard is empty must also steal exactly the reference's victim.  Adds to
// `lowered` how often a migrant lowered an SFS shard's virtual time.
void Fuzz(const PolicyCase& policy, int cpus, std::uint64_t seed, int ops, std::int64_t* lowered) {
  common::Rng rng(seed);
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = Msec(10);
  config.affinity_tolerance = rng.Bernoulli(0.5) ? 0 : Msec(rng.UniformInt(1, 20));
  config.shard_rebalance_period =
      rng.Bernoulli(0.5) ? 0 : static_cast<int>(rng.UniformInt(3, 20));
  config.shard_coupling = 0.5 * static_cast<double>(rng.UniformInt(0, 2));
  StealProbe s(config, policy.factory);

  std::vector<ThreadId> ready;    // runnable, not running
  std::vector<ThreadId> blocked;
  std::vector<ThreadId> running(static_cast<std::size_t>(cpus), kInvalidThread);
  ThreadId next_tid = 0;
  const auto weight = [&rng] { return static_cast<Weight>(rng.UniformInt(1, 20)); };
  const auto admit = [&] {
    // Crowd a quarter of the shards so several hold stealable backlogs.
    const CpuId home = rng.Bernoulli(0.7)
                           ? static_cast<CpuId>(rng.UniformInt(0, std::max(0, cpus / 4 - 1)))
                           : kInvalidCpu;
    s.AddThread(next_tid, weight(), home);
    ready.push_back(next_tid++);
  };
  // A random CPU that is running a thread (`busy`) or free; kInvalidCpu if none.
  const auto random_cpu = [&](bool busy) -> CpuId {
    std::vector<CpuId> matching;
    for (CpuId cpu = 0; cpu < cpus; ++cpu) {
      if ((running[static_cast<std::size_t>(cpu)] != kInvalidThread) == busy) {
        matching.push_back(cpu);
      }
    }
    return matching.empty()
               ? kInvalidCpu
               : matching[static_cast<std::size_t>(
                     rng.UniformInt(0, static_cast<std::int64_t>(matching.size()) - 1))];
  };
  const auto pick = [&](CpuId cpu) {
    const bool steals =
        config.shard_rebalance_period == 0 && s.shard(cpu).runnable_count() == 0;
    const StealProbe::StealVictim want =
        steals ? ReferenceVictim(s, cpu) : StealProbe::StealVictim{};
    const std::int64_t steals_before = s.steals();
    const ThreadId tid = s.PickNext(cpu);
    if (steals) {
      ASSERT_EQ(tid, want.tid) << "thief " << cpu;
      ASSERT_EQ(s.steals() - steals_before, want.tid == kInvalidThread ? 0 : 1);
    }
    if (tid != kInvalidThread) {
      running[static_cast<std::size_t>(cpu)] = tid;
      ready.erase(std::find(ready.begin(), ready.end(), tid));
    }
  };

  for (int i = 0; i < 2 * cpus + 4; ++i) {
    admit();
  }
  std::vector<double> shard_v(static_cast<std::size_t>(cpus),
                              std::numeric_limits<double>::quiet_NaN());
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    const auto choice = rng.UniformInt(0, 99);
    if (choice < 8) {
      admit();
    } else if (choice < 22 && !ready.empty()) {
      const ThreadId tid = Take(rng, ready);
      s.Block(tid);
      blocked.push_back(tid);
    } else if (choice < 38 && !blocked.empty()) {
      const ThreadId tid = Take(rng, blocked);
      s.Wakeup(tid);
      ready.push_back(tid);
    } else if (choice < 66) {
      if (const CpuId cpu = random_cpu(/*busy=*/false); cpu != kInvalidCpu) {
        ASSERT_NO_FATAL_FAILURE(pick(cpu));
      }
    } else if (choice < 88) {
      if (const CpuId cpu = random_cpu(/*busy=*/true); cpu != kInvalidCpu) {
        const ThreadId tid = running[static_cast<std::size_t>(cpu)];
        running[static_cast<std::size_t>(cpu)] = kInvalidThread;
        s.Charge(tid, Msec(rng.UniformInt(0, 20)));
        const auto next = rng.UniformInt(0, 9);
        if (next < 3) {
          s.Block(tid);
          blocked.push_back(tid);
        } else if (next < 4) {
          s.RemoveThread(tid);
        } else {
          ready.push_back(tid);
        }
      }
    } else if (choice < 93) {
      std::vector<ThreadId>& pool = rng.Bernoulli(0.5) ? ready : blocked;
      if (!pool.empty()) {
        s.RemoveThread(Take(rng, pool));
      }
    } else {
      std::vector<ThreadId>& pool = rng.Bernoulli(0.7) ? ready : blocked;
      if (!pool.empty()) {
        s.SetWeight(pool[static_cast<std::size_t>(rng.UniformInt(
                        0, static_cast<std::int64_t>(pool.size()) - 1))],
                    weight());
      }
    }
    ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(s, rng));
    ASSERT_NO_FATAL_FAILURE(CheckShardVirtualTimes(s, shard_v, *lowered));
  }
}

class ShardedStealTest : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ShardedStealTest, VictimAndBitmapMatchExhaustiveReference) {
  const PolicyCase& policy = Policies()[std::get<0>(GetParam())];
  const int cpus = std::get<1>(GetParam());
  // Fewer operations at large p: each one re-checks every thief.
  const int ops = cpus <= 8 ? 1500 : 250;
  std::int64_t lowered = 0;
  for (const std::uint64_t seed : {1ULL, 42ULL, 7919ULL}) {
    ASSERT_NO_FATAL_FAILURE(Fuzz(policy, cpus, seed, ops, &lowered));
  }
  if (std::string_view(policy.name) == "sfs") {
    EXPECT_GT(lowered, 0) << "no coupled migrant was filed behind a shard's virtual time";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShardedKinds, ShardedStealTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, Policies().size()),
                       ::testing::Values(2, 8, 64, 65, 130)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, int>>& info) {
      return std::string("sharded_") + Policies()[std::get<0>(info.param)].name + "_p" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sfs::sched
