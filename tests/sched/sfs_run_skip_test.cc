// Lockstep workloads for the exact SFS pick's run skipping.
//
// Within a phi class, threads with equal start tags form a run with one
// surplus; the pick visits each run's first idle member and skips the rest.
// These workloads make such runs long and keep them so: threads arrive in
// bursts at one virtual time (a whole class starts on one tag), every charge
// is the same quantum (a class advances in lockstep), and several CPUs pick
// before any charges, so a run's first members are often running when the
// next pick arrives.  After every operation the pick for each free CPU must
// equal a brute-force argmin over all runnable, not-running threads — the
// least (phi * (S - v), tid), with the affinity window on top when it is on —
// and Sfs::CheckInvariants() must hold.  No thread ever blocks.
//
// A second workload lands threads in the middle of populated classes: they
// join by a weight change, by arrival at v and by wakeup, and charges are
// partial, so start tags spread out and a charged thread's new tag falls
// between run heads.  It checks the same pick, the virtual time and the
// audit after every operation, once with tags rebased many times over (the
// run index's keys then shift while classes hold many runs), and the last
// tests pin how many run tags a re-file after a charge and a removal probe
// (Sfs::filing_probes()).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/sfs.h"

namespace sfs::sched {
namespace {

using Params = std::tuple<int /*cpus*/, bool /*affinity*/>;

class SfsRunSkipTest : public ::testing::TestWithParam<Params> {};

struct Model {
  std::vector<ThreadId> live;
  std::vector<CpuId> last_cpu;       // by tid; CPU of the last Charge
  std::vector<ThreadId> running_on;  // by CPU
};

ThreadId BrutePick(const Sfs& s, const Model& m, CpuId cpu, Tick tolerance) {
  double v = 0.0;
  bool any = false;
  for (const ThreadId tid : m.live) {
    if (s.IsRunnable(tid) && (!any || s.StartTag(tid) < v)) {
      v = s.StartTag(tid);
      any = true;
    }
  }
  auto surplus = [&](ThreadId tid) { return s.GetPhi(tid) * (s.StartTag(tid) - v); };
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
  ThreadId affine = kInvalidThread;
  double affine_s = 0.0;
  for (const ThreadId tid : m.live) {
    if (!s.IsRunnable(tid) || s.IsRunning(tid) ||
        m.last_cpu[static_cast<std::size_t>(tid)] != cpu) {
      continue;
    }
    const double a = surplus(tid);
    if (a <= best_s + static_cast<double>(tolerance) &&
        (affine == kInvalidThread || better(a, tid, affine_s, affine))) {
      affine = tid;
      affine_s = a;
    }
  }
  return affine != kInvalidThread ? affine : best;
}

bool Check(Sfs& s, const Model& m, Tick tolerance, const std::string& where) {
  const std::string audit = s.CheckInvariants();
  EXPECT_EQ(audit, "") << where;
  if (!audit.empty()) {
    return false;  // a pick on broken queues need not terminate
  }
  for (CpuId cpu = 0; cpu < s.num_cpus(); ++cpu) {
    if (m.running_on[static_cast<std::size_t>(cpu)] == kInvalidThread) {
      EXPECT_EQ(s.PeekExactPick(cpu), BrutePick(s, m, cpu, tolerance)) << where << " cpu " << cpu;
    }
  }
  return !::testing::Test::HasFailure();
}

// Picks whose winner shares its class and start tag with a running thread of
// lower tid: the winner's run was entered past a running first member.
struct Coverage {
  std::int64_t picks_past_running_head = 0;
  std::int64_t longest_run = 0;
};

Coverage Lockstep(int cpus, bool affinity, std::uint64_t seed, int ops) {
  common::Rng rng(seed * 104729 + static_cast<std::uint64_t>(cpus));
  SchedConfig config;
  config.num_cpus = cpus;
  const Tick quantum = Msec(10);
  const Tick tolerance = affinity ? Msec(25) : 0;
  config.affinity_tolerance = tolerance;
  Sfs s(config);

  // Power-of-two weights: q / phi is exact, so members of a class that ran
  // equally often keep bit-identical start tags.
  const double weights[] = {1.0, 2.0, 4.0};
  auto random_weight = [&] { return weights[rng.NextBounded(3)]; };
  const auto max_live = static_cast<std::size_t>(8 * cpus + 24);

  Model m;
  m.running_on.assign(static_cast<std::size_t>(cpus), kInvalidThread);
  ThreadId next_tid = 0;
  // A burst of arrivals with no decision between them: all start at one v.
  auto burst = [&](int n) {
    for (int i = 0; i < n && m.live.size() < max_live; ++i) {
      const ThreadId tid = next_tid++;
      m.live.push_back(tid);
      m.last_cpu.push_back(kInvalidCpu);
      s.AddThread(tid, random_weight());
    }
  };
  burst(4 * cpus + 8);

  Coverage coverage;
  for (int op = 0; op < ops; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const int choice = static_cast<int>(rng.UniformInt(0, 9));
    if (choice <= 3) {
      // Fill every free CPU, lowest first.
      for (CpuId cpu = 0; cpu < cpus; ++cpu) {
        if (m.running_on[static_cast<std::size_t>(cpu)] != kInvalidThread) {
          continue;
        }
        const ThreadId expected = BrutePick(s, m, cpu, tolerance);
        const ThreadId picked = s.PickNext(cpu);
        EXPECT_EQ(picked, expected) << where << " cpu " << cpu;
        if (picked != expected) {
          return coverage;
        }
        m.running_on[static_cast<std::size_t>(cpu)] = picked;
        for (const ThreadId r : m.running_on) {
          if (r != kInvalidThread && r < picked && s.GetPhi(r) == s.GetPhi(picked) &&
              s.StartTag(r) == s.StartTag(picked)) {
            ++coverage.picks_past_running_head;
            break;
          }
        }
      }
    } else if (choice <= 6) {
      // Charge one quantum on every busy CPU, or on a random half of them,
      // leaving the rest running into the next picks.
      const bool all = rng.Bernoulli(0.5);
      for (CpuId cpu = 0; cpu < cpus; ++cpu) {
        const ThreadId tid = m.running_on[static_cast<std::size_t>(cpu)];
        if (tid == kInvalidThread || (!all && rng.Bernoulli(0.5))) {
          continue;
        }
        s.Charge(tid, quantum);
        m.running_on[static_cast<std::size_t>(cpu)] = kInvalidThread;
        m.last_cpu[static_cast<std::size_t>(tid)] = cpu;
      }
    } else if (choice == 7) {
      burst(static_cast<int>(rng.UniformInt(1, cpus + 4)));
    } else if (choice == 8) {
      std::vector<ThreadId> idle;
      for (const ThreadId tid : m.live) {
        if (!s.IsRunning(tid)) {
          idle.push_back(tid);
        }
      }
      if (idle.size() > 2) {
        const ThreadId tid = idle[rng.NextBounded(idle.size())];
        s.RemoveThread(tid);
        m.live.erase(std::find(m.live.begin(), m.live.end(), tid));
      }
    } else {
      const ThreadId tid = m.live[rng.NextBounded(m.live.size())];
      s.SetWeight(tid, random_weight());
    }
    if (!Check(s, m, tolerance, where)) {
      return coverage;
    }
    // Longest run of equal (phi, S) among runnable threads.
    std::vector<std::pair<double, double>> keys;
    for (const ThreadId tid : m.live) {
      keys.emplace_back(s.GetPhi(tid), s.StartTag(tid));
    }
    std::sort(keys.begin(), keys.end());
    std::int64_t run = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      run = i > 0 && keys[i] == keys[i - 1] ? run + 1 : 1;
      coverage.longest_run = std::max(coverage.longest_run, run);
    }
  }
  for (const ThreadId tid : m.running_on) {
    if (tid != kInvalidThread) {
      s.Charge(tid, quantum);
    }
  }
  for (const ThreadId tid : m.live) {
    s.RemoveThread(tid);
  }
  EXPECT_EQ(s.phi_classes(), 0U);
  return coverage;
}

TEST_P(SfsRunSkipTest, LockstepPickMatchesBruteForce) {
  const auto [cpus, affinity] = GetParam();
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Coverage c = Lockstep(cpus, affinity, seed, /*ops=*/600);
    if (HasFailure()) {
      return;
    }
    total.picks_past_running_head += c.picks_past_running_head;
    total.longest_run = std::max(total.longest_run, c.longest_run);
  }
  // The workload did what it is for: long runs, entered past running heads
  // (on one CPU nothing else runs, so there is no such pick to make).
  EXPECT_GE(total.longest_run, 8);
  if (cpus > 1) {
    EXPECT_GT(total.picks_past_running_head, 0);
  }
}

// Distinct start tags of runnable threads in `tid`'s class (equal phi; no
// thread is warped here) below and above its own.
std::pair<int, int> TagsAround(const Sfs& s, const Model& m, ThreadId tid) {
  std::vector<double> below;
  std::vector<double> above;
  for (const ThreadId other : m.live) {
    if (other == tid || !s.IsRunnable(other) || s.GetPhi(other) != s.GetPhi(tid)) {
      continue;
    }
    const double tag = s.StartTag(other);
    if (tag < s.StartTag(tid)) {
      below.push_back(tag);
    } else if (tag > s.StartTag(tid)) {
      above.push_back(tag);
    }
  }
  for (std::vector<double>* tags : {&below, &above}) {
    std::sort(tags->begin(), tags->end());
    tags->erase(std::unique(tags->begin(), tags->end()), tags->end());
  }
  return {static_cast<int>(below.size()), static_cast<int>(above.size())};
}

struct Landings {
  std::int64_t mid_class_charges = 0;  // charged threads re-filed between two run heads
  std::int64_t weight_joins = 0;       // weight changes into a populated class
  std::int64_t wakeups = 0;
  std::int64_t arrivals = 0;
  std::int64_t rebases = 0;
};

Landings MidClass(int cpus, bool affinity, std::uint64_t seed, int ops,
                  double rebase_threshold = 1e15) {
  common::Rng rng(seed * 7919 + static_cast<std::uint64_t>(cpus));
  SchedConfig config;
  config.num_cpus = cpus;
  const Tick quantum = Msec(10);
  const Tick tolerance = affinity ? Msec(25) : 0;
  config.affinity_tolerance = tolerance;
  config.tag_rebase_threshold = rebase_threshold;
  Sfs s(config);

  // Weights 1..3 with more than 3p threads always runnable: every weight is
  // feasible, so readjustment never caps a thread (a capped thread that
  // blocks trips the audit, ROADMAP item 1).
  auto random_weight = [&] { return static_cast<double>(rng.UniformInt(1, 3)); };
  const auto min_runnable = static_cast<std::size_t>(3 * cpus + 1);
  const auto max_live = static_cast<std::size_t>(8 * cpus + 24);

  Model m;
  m.running_on.assign(static_cast<std::size_t>(cpus), kInvalidThread);
  ThreadId next_tid = 0;
  std::size_t runnable = 0;
  auto arrive = [&] {
    const ThreadId tid = next_tid++;
    m.live.push_back(tid);
    m.last_cpu.push_back(kInvalidCpu);
    s.AddThread(tid, random_weight());
    ++runnable;
  };
  while (m.live.size() < min_runnable + 4) {
    arrive();
  }
  // A random runnable (idle, when `idle`) or blocked thread, or
  // kInvalidThread if there is none.
  auto random_thread = [&](bool want_runnable, bool idle) {
    std::vector<ThreadId> pool;
    for (const ThreadId tid : m.live) {
      if (s.IsRunnable(tid) == want_runnable && !(idle && s.IsRunning(tid))) {
        pool.push_back(tid);
      }
    }
    return pool.empty() ? kInvalidThread : pool[rng.NextBounded(pool.size())];
  };

  Landings landings;
  for (int op = 0; op < ops; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const int choice = static_cast<int>(rng.UniformInt(0, 9));
    if (choice <= 2) {
      for (CpuId cpu = 0; cpu < cpus; ++cpu) {
        if (m.running_on[static_cast<std::size_t>(cpu)] == kInvalidThread) {
          const ThreadId expected = BrutePick(s, m, cpu, tolerance);
          const ThreadId picked = s.PickNext(cpu);
          EXPECT_EQ(picked, expected) << where << " cpu " << cpu;
          m.running_on[static_cast<std::size_t>(cpu)] = picked;
        }
      }
    } else if (choice <= 5) {
      // A partial charge on one busy CPU; sometimes the thread then blocks.
      const auto cpu = static_cast<CpuId>(rng.NextBounded(static_cast<std::uint64_t>(cpus)));
      const ThreadId tid = m.running_on[static_cast<std::size_t>(cpu)];
      if (tid != kInvalidThread) {
        s.Charge(tid, rng.UniformInt(1, quantum));
        m.running_on[static_cast<std::size_t>(cpu)] = kInvalidThread;
        m.last_cpu[static_cast<std::size_t>(tid)] = cpu;
        const auto [below, above] = TagsAround(s, m, tid);
        landings.mid_class_charges += below > 0 && above > 0 ? 1 : 0;
        if (runnable > min_runnable && rng.Bernoulli(0.3)) {
          s.Block(tid);
          --runnable;
        }
      }
    } else if (choice == 6) {
      if (const ThreadId tid = random_thread(true, false); tid != kInvalidThread) {
        const double weight = random_weight();
        for (const ThreadId other : m.live) {
          if (other != tid && s.IsRunnable(other) && s.GetWeight(other) == weight &&
              s.GetWeight(tid) != weight) {
            ++landings.weight_joins;
            break;
          }
        }
        s.SetWeight(tid, weight);
      }
    } else if (choice == 7) {
      if (m.live.size() < max_live) {
        arrive();
        ++landings.arrivals;
      }
    } else if (choice == 8) {
      if (const ThreadId tid = random_thread(false, false); tid != kInvalidThread) {
        s.Wakeup(tid);
        ++runnable;
        ++landings.wakeups;
      }
    } else if (runnable > min_runnable) {
      if (const ThreadId tid = random_thread(true, true); tid != kInvalidThread) {
        s.Block(tid);
        --runnable;
      }
    }
    double v = 0.0;
    bool any = false;
    for (const ThreadId tid : m.live) {
      if (s.IsRunnable(tid) && (!any || s.StartTag(tid) < v)) {
        v = s.StartTag(tid);
        any = true;
      }
    }
    EXPECT_EQ(s.VirtualTime(), v) << where;
    if (!Check(s, m, tolerance, where)) {
      return landings;
    }
  }
  landings.rebases = s.rebases();
  return landings;
}

TEST_P(SfsRunSkipTest, MidClassLandingPickMatchesBruteForce) {
  const auto [cpus, affinity] = GetParam();
  Landings total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Landings l = MidClass(cpus, affinity, seed, /*ops=*/600);
    if (HasFailure()) {
      return;
    }
    total.mid_class_charges += l.mid_class_charges;
    total.weight_joins += l.weight_joins;
    total.wakeups += l.wakeups;
    total.arrivals += l.arrivals;
  }
  // The workload did what it is for.
  EXPECT_GT(total.mid_class_charges, 100);
  EXPECT_GT(total.weight_joins, 50);
  EXPECT_GT(total.wakeups, 50);
  EXPECT_GT(total.arrivals, 50);
}

// The same workload with a rebase threshold of 20 us of weighted service:
// every tag, the run index's keys among them, shifts every few dozen
// operations while the classes hold many runs.  Affinity is off: within its
// window the affine threads keep the CPUs and v rarely moves.  The runs are
// longer than above, so that even at p=16 every thread is charged again and
// again.
TEST(SfsRunSkipRebaseTest, MidClassLandingWithTagRebasesPickMatchesBruteForce) {
  for (const int cpus : {1, 2, 16}) {
    Landings total;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Landings l = MidClass(cpus, /*affinity=*/false, seed, /*ops=*/3000,
                                  /*rebase_threshold=*/static_cast<double>(Usec(20)));
      if (HasFailure()) {
        return;
      }
      total.mid_class_charges += l.mid_class_charges;
      total.rebases += l.rebases;
    }
    EXPECT_GT(total.mid_class_charges, 100) << "p" << cpus;
    EXPECT_GT(total.rebases, 30) << "p" << cpus << ": " << total.rebases << " rebases";
  }
}

// Tags above twice the shift can round together in a rebase: 2^53 + 4 and
// 2^53 + 6, less 1, both round to 2^53 + 4 (ties to even).  The two runs
// then become one, in tid order, and the class still picks in (S, tid)
// order.
TEST(SfsRunSkipRebaseTest, RebaseThatRoundsTwoRunsTogetherMergesThem) {
  SchedConfig config;
  config.num_cpus = 1;
  config.tag_rebase_threshold = 0.5;
  Sfs s(config);
  for (ThreadId tid = 0; tid < 3; ++tid) {
    s.AddThread(tid, 1.0);
  }
  const Tick two53 = Tick{1} << 53;
  const Tick charges[] = {two53 + 6, two53 + 4, 1};
  for (ThreadId tid = 0; tid < 3; ++tid) {
    ASSERT_EQ(s.PickNext(0), tid);
    s.Charge(tid, charges[tid]);
  }
  ASSERT_EQ(s.StartTag(0) - 1.0, s.StartTag(1) - 1.0);  // the rounding
  ASSERT_EQ(s.rebases(), 0);
  ASSERT_EQ(s.PickNext(0), 2);  // v = 1 passes the threshold: rebase
  EXPECT_EQ(s.rebases(), 1);
  EXPECT_EQ(s.StartTag(0), s.StartTag(1));
  EXPECT_EQ(s.CheckInvariants(), "");
  s.Charge(2, two53 * 2);
  EXPECT_EQ(s.CheckInvariants(), "");
  EXPECT_EQ(s.PickNext(0), 0);
  s.Charge(0, 1);
  EXPECT_EQ(s.CheckInvariants(), "");
  EXPECT_EQ(s.PickNext(0), 1);
  EXPECT_EQ(s.CheckInvariants(), "");
}

// A charge that re-files a thread from the front of a 40-run class into its
// middle probes one run tag to take it out (the front is probed first) and
// the two end tags plus one binary search's worth, ceil(log2 39) + 1, to file
// it at the new tag: however far it moves (a walk over the run heads steps
// 19 from either end).
TEST(SfsRelinkTest, ChargeIntoTheMiddleProbesLogarithmicallyMany) {
  SchedConfig config;
  config.num_cpus = 1;
  Sfs s(config);
  constexpr int kThreads = 40;
  for (ThreadId tid = 0; tid < kThreads; ++tid) {
    s.AddThread(tid, 1.0);
  }
  // Thread k runs (k + 1) ms first, so the class holds one run per thread,
  // 1 ms apart, with thread 0 at its front.
  for (int k = 0; k < kThreads; ++k) {
    const ThreadId tid = s.PickNext(0);
    ASSERT_EQ(tid, k);
    s.Charge(tid, Msec(k + 1));
  }
  ASSERT_EQ(s.CheckInvariants(), "");
  // Thread 0 leads at 1 ms; 19.5 ms more puts it between threads 19 (20 ms)
  // and 20 (21 ms), 19 runs from either end.
  ASSERT_EQ(s.PickNext(0), 0);
  const std::int64_t before = s.filing_probes();
  s.Charge(0, Usec(19500));
  EXPECT_LE(s.filing_probes() - before, 1 + 2 + std::bit_width(unsigned{kThreads}) + 1);
  EXPECT_EQ(s.CheckInvariants(), "");
  EXPECT_EQ(s.PickNext(0), 1);
}

// Unfiling a thread that is not its run's head reads its queue
// predecessor's start tag, finds it equal, and leaves the run index alone: a
// removal probes no run tag, and a charge probes only the tags that file the
// thread again (both end tags, when it lands past the class's last run).
TEST(SfsRelinkTest, UnfilingInsideARunProbesNoRunTag) {
  SchedConfig config;
  config.num_cpus = 2;
  Sfs s(config);
  for (ThreadId tid = 0; tid < 6; ++tid) {
    s.AddThread(tid, 1.0);
  }
  // All six share one run at v = 0, thread 0 at its head.
  ASSERT_EQ(s.PickNext(0), 0);
  ASSERT_EQ(s.PickNext(1), 1);
  std::int64_t before = s.filing_probes();
  s.RemoveThread(4);
  EXPECT_EQ(s.filing_probes(), before);
  EXPECT_EQ(s.CheckInvariants(), "");
  before = s.filing_probes();
  s.Charge(1, Msec(10));
  EXPECT_EQ(s.filing_probes() - before, 2);
  EXPECT_EQ(s.CheckInvariants(), "");
  EXPECT_EQ(s.PickNext(1), 2);
}

INSTANTIATE_TEST_SUITE_P(
    Cpus, SfsRunSkipTest,
    ::testing::Combine(::testing::Values(1, 2, 16), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_affinity" : "_no_affinity");
    });

}  // namespace
}  // namespace sfs::sched
