// Unit tests for the GMS fluid reference (Section 2.2), and a differential
// test against a brute-force fluid oracle.  SFS_FUZZ_SEEDS bounds the seeds
// the differential test tries per processor count (default 6).

#include "src/eval/gms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "tests/integration/fuzz_workload.h"
#include "tests/sched/figure2_reference.h"

namespace sfs::eval {
namespace {

using sched::ThreadId;

TEST(GmsTest, SingleThreadGetsOneProcessor) {
  GmsReference gms(2);
  gms.AddThread(1, 5.0, 0);
  EXPECT_DOUBLE_EQ(gms.Rate(1), 1.0);  // capped at one CPU
  gms.AdvanceTo(Sec(1));
  EXPECT_DOUBLE_EQ(gms.Service(1), static_cast<double>(Sec(1)));
}

TEST(GmsTest, EqualWeightsShareProportionally) {
  GmsReference gms(2);
  gms.AddThread(1, 1.0, 0);
  gms.AddThread(2, 1.0, 0);
  gms.AddThread(3, 1.0, 0);
  gms.AddThread(4, 1.0, 0);
  // 4 threads, 2 CPUs: rate 1/2 each.
  for (ThreadId tid = 1; tid <= 4; ++tid) {
    EXPECT_DOUBLE_EQ(gms.Rate(tid), 0.5);
  }
}

TEST(GmsTest, InfeasibleWeightCappedViaReadjustment) {
  GmsReference gms(2);
  gms.AddThread(1, 100.0, 0);
  gms.AddThread(2, 1.0, 0);
  gms.AddThread(3, 1.0, 0);
  // Thread 1 capped at a full processor; the rest split the other.
  EXPECT_DOUBLE_EQ(gms.Rate(1), 1.0);
  EXPECT_DOUBLE_EQ(gms.Rate(2), 0.5);
  EXPECT_DOUBLE_EQ(gms.Rate(3), 0.5);
  EXPECT_DOUBLE_EQ(gms.Phi(2), 1.0);  // feasible weights unchanged
}

TEST(GmsTest, EquationTwoHoldsOverInterval) {
  // A_i / A_j == phi_i / phi_j for continuously runnable threads.
  GmsReference gms(2);
  gms.AddThread(1, 3.0, 0);
  gms.AddThread(2, 1.0, 0);
  gms.AddThread(3, 1.0, 0);
  gms.AddThread(4, 1.0, 0);
  gms.AdvanceTo(Sec(6));
  EXPECT_NEAR(gms.Service(1) / gms.Service(2), 3.0, 1e-9);
  EXPECT_NEAR(gms.Service(2) / gms.Service(3), 1.0, 1e-9);
}

TEST(GmsTest, BlockStopsAccumulation) {
  GmsReference gms(1);
  gms.AddThread(1, 1.0, 0);
  gms.AddThread(2, 1.0, 0);
  gms.AdvanceTo(Sec(1));
  gms.Block(2, Sec(1));
  gms.AdvanceTo(Sec(2));
  EXPECT_DOUBLE_EQ(gms.Service(2), static_cast<double>(Msec(500)));
  EXPECT_DOUBLE_EQ(gms.Service(1), static_cast<double>(Msec(1500)));
  gms.Wakeup(2, Sec(2));
  EXPECT_DOUBLE_EQ(gms.Rate(2), 0.5);
}

TEST(GmsTest, DepartureRedistributesBandwidth) {
  GmsReference gms(2);
  gms.AddThread(1, 1.0, 0);
  gms.AddThread(2, 1.0, 0);
  gms.AddThread(3, 1.0, 0);
  gms.AddThread(4, 1.0, 0);
  gms.RemoveThread(4, Sec(1));
  // 3 threads on 2 CPUs: 2/3 each.
  EXPECT_NEAR(gms.Rate(1), 2.0 / 3.0, 1e-12);
  // Departed thread keeps its accumulated service readable.
  EXPECT_DOUBLE_EQ(gms.Service(4), static_cast<double>(Msec(500)));
}

TEST(GmsTest, WeightChangeAppliesFromNow) {
  GmsReference gms(1);
  gms.AddThread(1, 1.0, 0);
  gms.AddThread(2, 1.0, 0);
  gms.SetWeight(1, 3.0, Sec(1));
  gms.AdvanceTo(Sec(2));
  // First second: 1/2 each.  Second second: 3/4 vs 1/4.
  EXPECT_NEAR(gms.Service(1), 0.5 * Sec(1) + 0.75 * Sec(1), 1e-6);
  EXPECT_NEAR(gms.Service(2), 0.5 * Sec(1) + 0.25 * Sec(1), 1e-6);
}

TEST(GmsTest, FeasibleBecomesInfeasibleOnBlock) {
  // The Section 2.1 example: 1:1:2 on 2 CPUs is feasible until a weight-1
  // thread blocks, after which the weight-2 thread is capped to equal share.
  GmsReference gms(2);
  gms.AddThread(1, 2.0, 0);
  gms.AddThread(2, 1.0, 0);
  gms.AddThread(3, 1.0, 0);
  EXPECT_DOUBLE_EQ(gms.Rate(1), 1.0);  // 2/4 * 2 CPUs
  gms.Block(3, Sec(1));
  EXPECT_DOUBLE_EQ(gms.Rate(1), 1.0);
  EXPECT_DOUBLE_EQ(gms.Rate(2), 1.0);  // equal: t <= p
  EXPECT_DOUBLE_EQ(gms.Phi(1), gms.Phi(2));
}

// A thread capped at a full processor keeps its capped phi when it blocks.
// Waking it must file it with phi = w again: a stale phi of 1 would give
// tid 0 a rate of 2 * 1/4 = 0.5 instead of 2 * 2/5 = 0.8.
TEST(GmsTest, CappedThenBlockedThreadWakesWithItsWeight) {
  GmsReference gms(2);
  gms.AddThread(0, 2.0, 0);
  gms.AddThread(1, 1.0, 0);
  EXPECT_DOUBLE_EQ(gms.Phi(0), gms.Phi(1));  // t <= p: both capped
  gms.Block(0, Sec(1));
  gms.AddThread(2, 1.0, Sec(1));
  gms.AddThread(3, 1.0, Sec(1));
  gms.Wakeup(0, Sec(2));
  EXPECT_EQ(gms.Phi(0), 2.0);
  EXPECT_EQ(gms.Rate(0), 0.8);
}

// --- differential test against a brute-force fluid oracle ----------------------

// GMS by definition, recomputed from scratch after every event: sort the
// runnable set by (weight desc, tid), readjust it with the literal Figure 2
// recursion, rate_i = min(1, p * phi_i / sum phi), and integrate.
class BruteForceGms {
 public:
  explicit BruteForceGms(int num_cpus) : num_cpus_(num_cpus) {}

  void AddThread(ThreadId tid, double weight, Tick now) {
    AdvanceTo(now);
    threads_[tid] = Thread{weight, weight, 0.0, 0.0, true};
    Recompute();
  }
  void RemoveThread(ThreadId tid, Tick now) { Stop(tid, now); }
  void Block(ThreadId tid, Tick now) { Stop(tid, now); }
  void Wakeup(ThreadId tid, Tick now) {
    AdvanceTo(now);
    threads_.at(tid).runnable = true;
    Recompute();
  }
  void SetWeight(ThreadId tid, double weight, Tick now) {
    AdvanceTo(now);
    threads_.at(tid).weight = weight;
    Recompute();
  }
  void AdvanceTo(Tick now) {
    const double dt = static_cast<double>(now - last_advance_);
    for (auto& [tid, t] : threads_) {
      t.service += t.rate * dt;
    }
    last_advance_ = now;
  }

  double Service(ThreadId tid) const { return threads_.at(tid).service; }
  double Rate(ThreadId tid) const { return threads_.at(tid).rate; }
  double Phi(ThreadId tid) const { return threads_.at(tid).phi; }
  double Weight(ThreadId tid) const { return threads_.at(tid).weight; }
  bool Runnable(ThreadId tid) const { return threads_.at(tid).runnable; }

 private:
  struct Thread {
    double weight;
    double phi;
    double rate;
    double service;
    bool runnable;
  };

  void Stop(ThreadId tid, Tick now) {
    AdvanceTo(now);
    threads_.at(tid).runnable = false;
    threads_.at(tid).rate = 0.0;
    Recompute();
  }

  void Recompute() {
    std::vector<std::pair<ThreadId, Thread*>> runnable;
    for (auto& [tid, t] : threads_) {
      if (t.runnable) {
        runnable.emplace_back(tid, &t);
      }
    }
    std::sort(runnable.begin(), runnable.end(), [](const auto& a, const auto& b) {
      return a.second->weight != b.second->weight ? a.second->weight > b.second->weight
                                                  : a.first < b.first;
    });
    std::vector<double> weights;
    for (const auto& [tid, t] : runnable) {
      weights.push_back(t->weight);
    }
    const std::vector<double> phi = sched::Figure2Reference(weights, num_cpus_);
    double phi_sum = 0.0;
    for (const double f : phi) {
      phi_sum += f;
    }
    for (std::size_t i = 0; i < runnable.size(); ++i) {
      runnable[i].second->phi = phi[i];
      runnable[i].second->rate = std::min(1.0, static_cast<double>(num_cpus_) * phi[i] / phi_sum);
    }
  }

  int num_cpus_;
  Tick last_advance_ = 0;
  std::map<ThreadId, Thread> threads_;
};

// Drives eval::GmsReference and the oracle with one random event stream and
// compares Service, Rate and Phi (of runnable threads) of every thread after
// every event, within relative `tolerance`.  The stream mixes arrivals, heavy
// arrivals that the readjustment caps, blocks (half of them of the heaviest
// runnable thread, which is capped whenever any is), wakeups, weight changes,
// departures and time steps, some of them zero so that events share a
// timestamp.
void RunDifferential(int cpus, std::uint64_t seed, bool fractional, double tolerance) {
  common::Rng rng(seed * 1000 + static_cast<std::uint64_t>(cpus));
  GmsReference gms(cpus);
  BruteForceGms oracle(cpus);
  const auto draw_weight = [&rng, fractional](bool heavy) {
    const double w = static_cast<double>(heavy ? rng.UniformInt(40, 400) : rng.UniformInt(1, 20));
    return fractional ? w * static_cast<double>(rng.UniformInt(500, 1500)) / 1000.0 : w;
  };
  std::vector<ThreadId> runnable;
  std::vector<ThreadId> blocked;
  std::vector<ThreadId> all;
  const auto take = [&rng](std::vector<ThreadId>& from) {
    const auto at = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(from.size()) - 1));
    const ThreadId tid = from[at];
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(at));
    return tid;
  };
  ThreadId next_tid = 0;
  Tick now = 0;
  for (int op = 0; op < 600; ++op) {
    const auto kind = rng.UniformInt(0, 99);
    if (kind < 10) {
      now += rng.Bernoulli(0.3) ? 0 : static_cast<Tick>(rng.UniformInt(1, Msec(50)));
      gms.AdvanceTo(now);
      oracle.AdvanceTo(now);
    } else if ((kind < 30 && all.size() < static_cast<std::size_t>(4 * cpus + 24)) ||
               (runnable.empty() && blocked.empty())) {
      const double w = draw_weight(rng.Bernoulli(0.2));
      gms.AddThread(next_tid, w, now);
      oracle.AddThread(next_tid, w, now);
      runnable.push_back(next_tid);
      all.push_back(next_tid++);
    } else if (kind < 50 && !runnable.empty()) {
      ThreadId tid;
      if (rng.Bernoulli(0.5)) {
        const auto heavier = [&oracle](ThreadId a, ThreadId b) {
          return oracle.Weight(a) != oracle.Weight(b) ? oracle.Weight(a) > oracle.Weight(b) : a < b;
        };
        const auto it = std::min_element(runnable.begin(), runnable.end(), heavier);
        tid = *it;
        runnable.erase(it);
      } else {
        tid = take(runnable);
      }
      gms.Block(tid, now);
      oracle.Block(tid, now);
      blocked.push_back(tid);
    } else if ((kind < 70 && !blocked.empty()) || runnable.empty()) {
      const ThreadId tid = take(blocked);
      gms.Wakeup(tid, now);
      oracle.Wakeup(tid, now);
      runnable.push_back(tid);
    } else if (kind < 85) {
      const ThreadId tid = runnable[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(runnable.size()) - 1))];
      const double w = draw_weight(rng.Bernoulli(0.2));
      gms.SetWeight(tid, w, now);
      oracle.SetWeight(tid, w, now);
    } else {
      const ThreadId tid = take(blocked.empty() || rng.Bernoulli(0.5) ? runnable : blocked);
      gms.RemoveThread(tid, now);
      oracle.RemoveThread(tid, now);
    }
    const auto near = [tolerance](double actual, double expected) {
      return tolerance == 0.0 ? actual == expected
                              : std::abs(actual - expected) <= tolerance * std::abs(expected);
    };
    for (const ThreadId tid : all) {
      ASSERT_TRUE(near(gms.Service(tid), oracle.Service(tid)))
          << "service of " << tid << ": " << gms.Service(tid) << " vs " << oracle.Service(tid)
          << " (p=" << cpus << " seed " << seed << " op " << op << ")";
      ASSERT_TRUE(near(gms.Rate(tid), oracle.Rate(tid)))
          << "rate of " << tid << ": " << gms.Rate(tid) << " vs " << oracle.Rate(tid)
          << " (p=" << cpus << " seed " << seed << " op " << op << ")";
      if (oracle.Runnable(tid)) {
        ASSERT_TRUE(near(gms.Phi(tid), oracle.Phi(tid)))
            << "phi of " << tid << ": " << gms.Phi(tid) << " vs " << oracle.Phi(tid)
            << " (p=" << cpus << " seed " << seed << " op " << op << ")";
        // Integer weights sum exactly, so both sides make the same feasibility
        // comparisons and cap the same threads.  (Fractional sums round, and
        // a comparison within an ulp of its suffix may go either way; the cap
        // then sits within rounding of w.)
        if (!fractional) {
          ASSERT_EQ(gms.Phi(tid) == oracle.Weight(tid), oracle.Phi(tid) == oracle.Weight(tid))
              << "cap of " << tid << " (p=" << cpus << " seed " << seed << " op " << op << ")";
        }
      }
    }
  }
}

// Integer weights sum exactly, so both sides make the same comparisons, cap
// the same threads and divide the same sums.  At p <= 2 at most one phi is a
// quotient (with t <= p every phi is 1), so the results are bit-identical.
// With two or more caps, Figure 2 assigns each bottom-up from the readjusted
// weights after it while ReadjustQueue gives every cap T / (p - k), so the
// caps, and the rates and services that depend on them, can differ in the
// last ulps.
TEST(GmsDifferentialTest, IntegerWeightsMatchBruteForce) {
  for (const int cpus : {1, 2, 4, 16}) {
    for (std::uint64_t seed = 1; seed <= FuzzSeedCount(6); ++seed) {
      RunDifferential(cpus, seed, /*fractional=*/false, /*tolerance=*/cpus <= 2 ? 0.0 : 1e-14);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(GmsDifferentialTest, FractionalWeightsMatchBruteForceToRounding) {
  for (const int cpus : {1, 2, 4, 16}) {
    for (std::uint64_t seed = 1; seed <= FuzzSeedCount(6); ++seed) {
      RunDifferential(cpus, seed, /*fractional=*/true, /*tolerance=*/1e-12);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace sfs::eval
