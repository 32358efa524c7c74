// Property test for the exact SFS decision over phi classes.
//
// After every operation of a fuzzed sequence — add, remove, block, wake,
// pick, charge, SetWeight, SetWarp — the scheduler's exact pick for every
// free CPU must equal a brute-force scan over all runnable, not-running
// threads: the least (phi * (S - v - warp_eff), tid), with the affinity
// window applied on top when affinity_tolerance > 0.  VirtualTime() must
// equal the brute-force minimum start tag, and the number of phi classes may
// never exceed the runnable count.
//
// The sequences are built to hit the cases the class pick has to get right:
//   * surplus ties across classes: power-of-two weights and whole-tick
//     charges make phi * (S - v) coincide across different phis, and every
//     newly admitted thread starts at surplus 0;
//   * rounding ties within a class: a huge negative warp makes
//     S - v - warp round different start tags to one surplus, so the tid
//     tie-break can prefer a later entry of the class over its head;
//   * readjustment cap flips (weights far above the others) and weight
//     changes of running and blocked threads;
//   * tag rebases (a low tag_rebase_threshold) and fixed-point tags;
//   * p = 1, 2 and 16, with the scheduler built by the factory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sched/sfs.h"

namespace sfs::sched {
namespace {

using Params = std::tuple<SchedKind, int /*cpus*/>;

constexpr double kHugeWarp = -1e19;  // rounds S - v - warp to multiples of 2048

class SfsClassPickTest : public ::testing::TestWithParam<Params> {};

struct Model {
  std::vector<ThreadId> live;        // every thread the scheduler knows
  std::vector<double> warp;          // by tid; the warp the test set
  std::vector<CpuId> last_cpu;       // by tid; CPU of the last Charge
  std::vector<ThreadId> running_on;  // by CPU
};

double BruteVirtualTime(const Sfs& s, const Model& m, bool* any) {
  double v = 0.0;
  *any = false;
  for (const ThreadId tid : m.live) {
    if (s.IsRunnable(tid) && (!*any || s.StartTag(tid) < v)) {
      v = s.StartTag(tid);
      *any = true;
    }
  }
  return v;
}

ThreadId BrutePick(const Sfs& s, const Model& m, CpuId cpu, Tick tolerance) {
  bool any = false;
  const double v = BruteVirtualTime(s, m, &any);
  auto surplus = [&](ThreadId tid) {
    const double w = m.warp[static_cast<std::size_t>(tid)];
    return s.GetPhi(tid) * (s.StartTag(tid) - v - w);
  };
  auto better = [](double s1, ThreadId t1, double s2, ThreadId t2) {
    return s1 < s2 || (s1 == s2 && t1 < t2);
  };
  ThreadId best = kInvalidThread;
  double best_s = 0.0;
  for (const ThreadId tid : m.live) {
    if (!s.IsRunnable(tid) || s.IsRunning(tid)) {
      continue;
    }
    const double a = surplus(tid);
    if (best == kInvalidThread || better(a, tid, best_s, best)) {
      best = tid;
      best_s = a;
    }
  }
  if (best == kInvalidThread || tolerance <= 0 ||
      m.last_cpu[static_cast<std::size_t>(best)] == cpu) {
    return best;
  }
  const double window = best_s + static_cast<double>(tolerance);
  ThreadId affine = kInvalidThread;
  double affine_s = 0.0;
  for (const ThreadId tid : m.live) {
    if (!s.IsRunnable(tid) || s.IsRunning(tid) ||
        m.last_cpu[static_cast<std::size_t>(tid)] != cpu) {
      continue;
    }
    const double a = surplus(tid);
    if (a <= window && (affine == kInvalidThread || better(a, tid, affine_s, affine))) {
      affine = tid;
      affine_s = a;
    }
  }
  return affine != kInvalidThread ? affine : best;
}

// Checks every invariant; returns false (after recording failures) on the
// first violation so a failing seed reports one operation, not thousands.
bool Check(Sfs& s, const Model& m, Tick tolerance, const std::string& where) {
  bool any = false;
  const double v = BruteVirtualTime(s, m, &any);
  if (any) {
    EXPECT_EQ(s.VirtualTime(), v) << where;
  }
  EXPECT_LE(static_cast<int>(s.phi_classes()), s.runnable_count()) << where;
  for (CpuId cpu = 0; cpu < s.num_cpus(); ++cpu) {
    if (m.running_on[static_cast<std::size_t>(cpu)] != kInvalidThread) {
      continue;
    }
    EXPECT_EQ(s.PeekExactPick(cpu), BrutePick(s, m, cpu, tolerance)) << where << " cpu " << cpu;
  }
  return !::testing::Test::HasFailure();
}

template <typename Pred>
ThreadId RandomThread(common::Rng& rng, const Model& m, Pred pred) {
  std::vector<ThreadId> candidates;
  for (const ThreadId tid : m.live) {
    if (pred(tid)) {
      candidates.push_back(tid);
    }
  }
  if (candidates.empty()) {
    return kInvalidThread;
  }
  return candidates[rng.NextBounded(candidates.size())];
}

// A random CPU that is running a thread (`busy`) or is free, or kInvalidCpu.
CpuId RandomCpu(common::Rng& rng, const Model& m, bool busy) {
  std::vector<CpuId> candidates;
  for (CpuId cpu = 0; cpu < static_cast<CpuId>(m.running_on.size()); ++cpu) {
    if ((m.running_on[static_cast<std::size_t>(cpu)] != kInvalidThread) == busy) {
      candidates.push_back(cpu);
    }
  }
  if (candidates.empty()) {
    return kInvalidCpu;
  }
  return candidates[rng.NextBounded(candidates.size())];
}

// What a fuzzed sequence exercised, so the test can insist the rebase and
// re-filing paths actually ran.
struct Coverage {
  std::int64_t rebases = 0;
  std::int64_t refiles = 0;
};

Coverage Fuzz(SchedKind kind, int cpus, std::uint64_t seed, int ops) {
  common::Rng rng(seed * 7919 + static_cast<std::uint64_t>(cpus));
  SchedConfig config;
  config.num_cpus = cpus;
  config.affinity_tolerance = rng.Bernoulli(0.5) ? Msec(rng.UniformInt(1, 40)) : 0;
  config.tag_rebase_threshold = rng.Bernoulli(0.5) ? 5e3 : 1e15;
  config.fixed_point_digits = rng.Bernoulli(0.25) ? static_cast<int>(rng.UniformInt(0, 3)) : -1;
  const bool huge_warps = rng.Bernoulli(0.5);
  const std::unique_ptr<Scheduler> owner = CreateScheduler(kind, config);
  Sfs& s = dynamic_cast<Sfs&>(*owner);

  // Power-of-two weights produce exact cross-class surplus ties; 3 and 0.75
  // produce inexact tags; 500 is infeasible next to the rest and gets capped.
  const std::vector<double> weights = {1, 2, 4, 8, 0.5, 3, 0.75, 500};
  auto random_weight = [&] { return weights[rng.NextBounded(weights.size())]; };
  auto random_warp = [&]() -> double {
    if (huge_warps && rng.Bernoulli(0.7)) {
      return kHugeWarp;
    }
    const double choices[] = {0.0, 0.0, static_cast<double>(Msec(3)), 1.5};
    return choices[rng.NextBounded(4)];
  };

  Model m;
  m.running_on.assign(static_cast<std::size_t>(cpus), kInvalidThread);
  ThreadId next_tid = 0;
  auto add = [&] {
    const ThreadId tid = next_tid++;
    m.live.push_back(tid);
    m.warp.push_back(0.0);
    m.last_cpu.push_back(kInvalidCpu);
    s.AddThread(tid, random_weight());
    if (huge_warps) {
      m.warp.back() = kHugeWarp;
      s.SetWarp(tid, kHugeWarp);
    }
  };
  for (int i = 0; i < cpus + 4; ++i) {
    add();
  }

  for (int op = 0; op < ops; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    auto runnable_idle = [&](ThreadId t) { return s.IsRunnable(t) && !s.IsRunning(t); };
    switch (rng.UniformInt(0, 9)) {
      case 0:
        if (m.live.size() < 48) {
          add();
        }
        break;
      case 1: {
        const ThreadId tid = RandomThread(rng, m, [&](ThreadId t) { return !s.IsRunning(t); });
        if (tid != kInvalidThread && m.live.size() > 2) {
          s.RemoveThread(tid);
          m.live.erase(std::find(m.live.begin(), m.live.end(), tid));
        }
        break;
      }
      case 2: {
        const ThreadId tid = RandomThread(rng, m, runnable_idle);
        if (tid != kInvalidThread) {
          s.Block(tid);
        }
        break;
      }
      case 3: {
        const ThreadId tid = RandomThread(rng, m, [&](ThreadId t) { return !s.IsRunnable(t); });
        if (tid != kInvalidThread) {
          s.Wakeup(tid);
        }
        break;
      }
      case 4:
      case 5: {
        const CpuId cpu = RandomCpu(rng, m, /*busy=*/false);
        if (cpu == kInvalidCpu) {
          break;
        }
        const ThreadId expected = BrutePick(s, m, cpu, config.affinity_tolerance);
        const ThreadId picked = s.PickNext(cpu);
        EXPECT_EQ(picked, expected) << where;
        if (picked != expected) {
          return {};
        }
        m.running_on[static_cast<std::size_t>(cpu)] = picked;
        break;
      }
      case 6:
      case 7: {
        const CpuId cpu = RandomCpu(rng, m, /*busy=*/true);
        if (cpu == kInvalidCpu) {
          break;
        }
        const ThreadId tid = m.running_on[static_cast<std::size_t>(cpu)];
        const Tick ran_for =
            rng.Bernoulli(0.2) ? rng.UniformInt(0, 3) : Msec(rng.UniformInt(1, 50));
        s.Charge(tid, ran_for);
        m.running_on[static_cast<std::size_t>(cpu)] = kInvalidThread;
        m.last_cpu[static_cast<std::size_t>(tid)] = cpu;
        break;
      }
      case 8: {
        const ThreadId tid = RandomThread(rng, m, [](ThreadId) { return true; });
        s.SetWeight(tid, random_weight());
        break;
      }
      case 9: {
        const ThreadId tid = RandomThread(rng, m, [](ThreadId) { return true; });
        const double warp = random_warp();
        s.SetWarp(tid, warp);
        m.warp[static_cast<std::size_t>(tid)] = warp;
        break;
      }
    }
    if (!Check(s, m, config.affinity_tolerance, where)) {
      return {};
    }
  }
  const Coverage coverage{s.rebases(), s.refresh_repositions()};

  // Churn down to nothing: every class must be recycled.
  for (CpuId cpu = 0; cpu < cpus; ++cpu) {
    const ThreadId tid = m.running_on[static_cast<std::size_t>(cpu)];
    if (tid != kInvalidThread) {
      s.Charge(tid, Msec(1));
    }
  }
  for (const ThreadId tid : m.live) {
    s.RemoveThread(tid);
  }
  EXPECT_EQ(s.phi_classes(), 0U);
  return coverage;
}

TEST_P(SfsClassPickTest, ExactPickMatchesBruteForceArgmin) {
  const auto [kind, cpus] = GetParam();
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Coverage c = Fuzz(kind, cpus, seed, /*ops=*/1500);
    if (HasFailure()) {
      return;
    }
    total.rebases += c.rebases;
    total.refiles += c.refiles;
  }
  EXPECT_GT(total.rebases, 0);
  EXPECT_GT(total.refiles, 0);
}

TEST(SfsRoundingTieTest, WithinAClassTheLowerTidWins) {
  // Two threads in one class (same phi, same warp) whose start tags differ
  // but whose surpluses round to the same value: the tid tie-break must pick
  // the later entry of the class, thread 1, over its head, thread 2.
  SchedConfig config;
  config.num_cpus = 1;
  Sfs s(config);
  s.AddThread(2, 1.0);
  ASSERT_EQ(s.PickNext(0), 2);
  s.Charge(2, 0);  // S2 = v
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, 100);  // S1 = v + 100
  s.SetWarp(1, kHugeWarp);
  s.SetWarp(2, kHugeWarp);
  ASSERT_GT(s.StartTag(1), s.StartTag(2));
  ASSERT_EQ(s.Surplus(1), s.Surplus(2));
  EXPECT_EQ(s.PeekExactPick(0), 1);
  EXPECT_EQ(s.PickNext(0), 1);
}

// The single-case tie tests below build their Model by hand: every thread
// in `live`, warps by tid, the CPU each thread last ran on by tid.
Model HandModel(const std::vector<ThreadId>& live,
                const std::vector<std::pair<ThreadId, double>>& warps,
                const std::vector<std::pair<ThreadId, CpuId>>& last_cpus) {
  Model m;
  m.live = live;
  const auto size = static_cast<std::size_t>(*std::max_element(live.begin(), live.end())) + 1;
  m.warp.assign(size, 0.0);
  m.last_cpu.assign(size, kInvalidCpu);
  for (const auto& [tid, warp] : warps) {
    m.warp[static_cast<std::size_t>(tid)] = warp;
  }
  for (const auto& [tid, cpu] : last_cpus) {
    m.last_cpu[static_cast<std::size_t>(tid)] = cpu;
  }
  return m;
}

// The audit passes and the pick on `cpu` equals the brute-force scan;
// returns the scan's thread.
ThreadId AuditedPick(Sfs& s, const Model& m, CpuId cpu, Tick tolerance = 0) {
  EXPECT_EQ(s.CheckInvariants(), "");
  const ThreadId want = BrutePick(s, m, cpu, tolerance);
  EXPECT_EQ(s.PeekExactPick(cpu), want);
  return want;
}

TEST(SfsTiePathTest, ExactTieAcrossClassesGoesToTheLowerTidInTheLaterClass) {
  // Classes phi 1 (threads 9 and 5, opened first) and phi 2 (thread 2): with
  // 9 running at v, candidates 5 and 2 have the surplus 1 * 10 ms = 2 * 5 ms.
  // The pass meets phi 1 first, so thread 2 wins only through the tie rescan.
  SchedConfig config;
  config.num_cpus = 1;
  Sfs s(config);
  s.AddThread(9, 1.0);
  s.AddThread(5, 1.0);
  s.AddThread(2, 2.0);
  ASSERT_EQ(s.PickNext(0), 2);
  s.Charge(2, Msec(10));
  ASSERT_EQ(s.PickNext(0), 5);
  s.Charge(5, Msec(10));
  ASSERT_EQ(s.PickNext(0), 9);  // stays running at v
  ASSERT_EQ(s.phi_classes(), 2U);
  ASSERT_EQ(s.Surplus(5), s.Surplus(2));
  ASSERT_GT(s.Surplus(5), 0.0);
  EXPECT_EQ(AuditedPick(s, HandModel({9, 5, 2}, {}, {}), 0), 2);
}

TEST(SfsTiePathTest, RoundingTieInALaterRunOfAClassAfterTheFirstAtTheLeast) {
  // Class X (phi 2, warp kHugeWarp / 2; thread 7) precedes class Y (phi 1,
  // warp kHugeWarp; threads 6 at v and 1 at v + 100) in the head table, and
  // all three surpluses round to 1e19.  X holds the first least entry, Y
  // ties it, and thread 1 wins only through Y's walk past its first run.
  SchedConfig config;
  config.num_cpus = 1;
  Sfs s(config);
  s.AddThread(7, 2.0);
  s.AddThread(6, 1.0);
  s.AddThread(1, 1.0);
  ASSERT_EQ(s.PickNext(0), 1);
  s.Charge(1, 100);  // S1 = v + 100
  // X relabels 7's class in place; Y opens last and, when 6 leaves the
  // emptied class, takes its place after X.
  s.SetWarp(7, kHugeWarp / 2);
  s.SetWarp(1, kHugeWarp);
  s.SetWarp(6, kHugeWarp);
  ASSERT_EQ(s.phi_classes(), 2U);
  ASSERT_GT(s.StartTag(1), s.StartTag(6));
  ASSERT_EQ(s.Surplus(7), s.Surplus(6));
  ASSERT_EQ(s.Surplus(6), s.Surplus(1));
  const Model m = HandModel({7, 6, 1}, {{7, kHugeWarp / 2}, {6, kHugeWarp}, {1, kHugeWarp}}, {});
  EXPECT_EQ(AuditedPick(s, m, 0), 1);
  EXPECT_EQ(s.PickNext(0), 1);
  EXPECT_EQ(s.CheckInvariants(), "");
}

TEST(SfsTiePathTest, StaleEntryIsRefreshedBeforeItWins) {
  // Class C holds threads 1, 2 and 3 at v, class D thread 4.  CPU 1's
  // affinity window dispatches 2, which is not C's candidate (1), so C's
  // entry goes stale; 1 then blocks.  The next pick must find C's candidate
  // afresh, skipping the running 2: thread 3, ahead of D's 4.
  constexpr Tick kTolerance = Msec(1);
  SchedConfig config;
  config.num_cpus = 2;
  config.affinity_tolerance = kTolerance;
  Sfs s(config);
  s.AddThread(2, 1.0);
  ASSERT_EQ(s.PickNext(1), 2);
  s.Charge(2, 0);  // last ran on CPU 1, still at v
  s.AddThread(1, 1.0);
  s.AddThread(3, 1.0);
  s.AddThread(4, 2.0);
  ASSERT_EQ(s.phi_classes(), 2U);
  const Model m = HandModel({1, 2, 3, 4}, {}, {{2, 1}});
  ASSERT_EQ(AuditedPick(s, m, 1, kTolerance), 2);
  ASSERT_EQ(s.PickNext(1), 2);
  EXPECT_EQ(s.CheckInvariants(), "");
  s.Block(1);
  EXPECT_EQ(AuditedPick(s, m, 0, kTolerance), 3);
  EXPECT_EQ(s.PickNext(0), 3);
  EXPECT_EQ(s.CheckInvariants(), "");
}

TEST(SfsTiePathTest, EveryClassFullyRunningPicksNothing) {
  SchedConfig config;
  config.num_cpus = 2;
  Sfs s(config);
  s.AddThread(1, 1.0);
  s.AddThread(2, 1.0);
  s.SetWarp(2, 5.0);  // a class of its own
  ASSERT_EQ(s.phi_classes(), 2U);
  ASSERT_NE(s.PickNext(0), kInvalidThread);
  ASSERT_NE(s.PickNext(1), kInvalidThread);
  const Model m = HandModel({1, 2}, {{2, 5.0}}, {});
  EXPECT_EQ(AuditedPick(s, m, 0), kInvalidThread);
  EXPECT_EQ(AuditedPick(s, m, 1), kInvalidThread);
}

// Instances keep the names sorted_p<cpus> they had when the run queue was
// selectable.
INSTANTIATE_TEST_SUITE_P(
    BackendsAndCpus, SfsClassPickTest,
    ::testing::Combine(::testing::Values(SchedKind::kSfs), ::testing::Values(1, 2, 16)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "sorted_p" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sfs::sched
