// Tests for the weight readjustment algorithm (Section 2.1, Figure 2).

#include "src/sched/readjust.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/common/rng.h"

namespace sfs::sched {
namespace {

constexpr double kEps = 1e-9;

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

// --- ReadjustVector: the Figure 2 reference ------------------------------------

TEST(ReadjustVectorTest, FeasibleAssignmentUnchanged) {
  // 1:1:2 on two processors is feasible (2/4 == 1/2, not greater).
  const std::vector<double> w = {2.0, 1.0, 1.0};
  EXPECT_EQ(ReadjustVector(w, 2), w);
}

TEST(ReadjustVectorTest, PaperExample1Weights) {
  // Example 1: w = {10, 1} on 2 CPUs.  t <= p: both get equal instantaneous
  // weights (each can consume at most one processor).
  const auto phi = ReadjustVector({10.0, 1.0}, 2);
  ASSERT_EQ(phi.size(), 2u);
  EXPECT_DOUBLE_EQ(phi[0], phi[1]);
}

TEST(ReadjustVectorTest, SingleInfeasibleThreadCapped) {
  // {10, 1, 1, 1, 1} on 2 CPUs: 10/14 > 1/2 -> capped to share exactly 1/2.
  const auto phi = ReadjustVector({10.0, 1.0, 1.0, 1.0, 1.0}, 2);
  const double total = Sum(phi);
  EXPECT_NEAR(phi[0] / total, 0.5, kEps);
  for (std::size_t i = 1; i < phi.size(); ++i) {
    EXPECT_DOUBLE_EQ(phi[i], 1.0);  // feasible weights never change
  }
}

TEST(ReadjustVectorTest, TwoInfeasibleThreadsOnFourCpus) {
  // {100, 50, 1, 1, 1, 1} on 4 CPUs: both heavy threads exceed 1/4.
  const auto phi = ReadjustVector({100.0, 50.0, 1.0, 1.0, 1.0, 1.0}, 4);
  const double total = Sum(phi);
  EXPECT_NEAR(phi[0] / total, 0.25, kEps);
  EXPECT_NEAR(phi[1] / total, 0.25, kEps);
  EXPECT_DOUBLE_EQ(phi[0], phi[1]);  // all capped threads share one value
  for (std::size_t i = 2; i < phi.size(); ++i) {
    EXPECT_DOUBLE_EQ(phi[i], 1.0);
  }
}

TEST(ReadjustVectorTest, BoundaryShareExactlyOneOverPIsFeasible) {
  // Share == 1/p satisfies Equation 1 (not a violation).
  const std::vector<double> w = {2.0, 1.0, 1.0};  // 2/4 == 1/2 on 2 CPUs
  const auto phi = ReadjustVector(w, 2);
  EXPECT_EQ(phi, w);
}

TEST(ReadjustVectorTest, UniprocessorNeverReadjusts) {
  // On one CPU every assignment is feasible (w_i / sum <= 1 always).
  const std::vector<double> w = {100.0, 1.0, 1.0};
  EXPECT_EQ(ReadjustVector(w, 1), w);
}

TEST(ReadjustVectorTest, FewerThreadsThanCpusAllEqual) {
  const auto phi = ReadjustVector({7.0, 3.0, 2.0}, 4);
  EXPECT_DOUBLE_EQ(phi[0], phi[1]);
  EXPECT_DOUBLE_EQ(phi[1], phi[2]);
}

TEST(ReadjustVectorTest, BlockingMakesFeasibleInfeasible) {
  // The Section 2.1 example: 1:1:2 feasible on 2 CPUs; when a weight-1 thread
  // blocks, {2, 1} remains (t == p) and must become equal shares.
  const auto before = ReadjustVector({2.0, 1.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(before[0], 2.0);
  const auto after = ReadjustVector({2.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(after[0], after[1]);
}

TEST(ReadjustVectorTest, EmptyInput) {
  EXPECT_TRUE(ReadjustVector({}, 2).empty());
}

// --- properties of the readjustment (optimality, Section 2.1) -------------------

class ReadjustPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReadjustPropertyTest, AllSharesFeasibleAfterReadjustment) {
  const int cpus = GetParam();
  common::Rng rng(1000 + static_cast<std::uint64_t>(cpus));
  for (int trial = 0; trial < 200; ++trial) {
    const int t = static_cast<int>(rng.UniformInt(1, 40));
    std::vector<double> w;
    for (int i = 0; i < t; ++i) {
      w.push_back(static_cast<double>(rng.UniformInt(1, 10000)));
    }
    std::sort(w.begin(), w.end(), std::greater<>());
    const auto phi = ReadjustVector(w, cpus);
    if (t <= cpus) {
      // Every thread can hold a full processor: the closest feasible assignment
      // is equal instantaneous weights (shares of 1/t >= 1/p are unreachable
      // anyway — a thread cannot use more than one CPU).
      for (double f : phi) {
        EXPECT_DOUBLE_EQ(f, phi[0]);
      }
      continue;
    }
    const double total = Sum(phi);
    for (double f : phi) {
      EXPECT_LE(f / total, 1.0 / cpus + 1e-9);
    }
  }
}

TEST_P(ReadjustPropertyTest, FeasibleWeightsNeverChangeAndCapsAreTight) {
  const int cpus = GetParam();
  common::Rng rng(2000 + static_cast<std::uint64_t>(cpus));
  for (int trial = 0; trial < 200; ++trial) {
    const int t = static_cast<int>(rng.UniformInt(cpus + 1, 40));
    std::vector<double> w;
    for (int i = 0; i < t; ++i) {
      w.push_back(static_cast<double>(rng.UniformInt(1, 10000)));
    }
    std::sort(w.begin(), w.end(), std::greater<>());
    const auto phi = ReadjustVector(w, cpus);
    const double total = Sum(phi);
    int capped = 0;
    for (std::size_t i = 0; i < phi.size(); ++i) {
      if (phi[i] != w[i]) {
        ++capped;
        // Changed weights are capped at exactly share 1/p — the nearest feasible
        // value (optimality claim).
        EXPECT_NEAR(phi[i] / total, 1.0 / cpus, 1e-9);
        EXPECT_LT(phi[i], w[i]);  // caps only shrink
      }
    }
    // "No more than (p-1) threads can have infeasible weights."
    EXPECT_LE(capped, cpus - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Cpus, ReadjustPropertyTest, ::testing::Values(2, 3, 4, 8, 16));

// --- parity with the literal Figure 2 recursion ---------------------------------

// Verbatim transcription of Figure 2 (the pre-optimization ReadjustVector body):
// recomputes the suffix sum at every level, O(capped * n).  Kept here as the
// parity oracle for the O(n) single-pass production form.
void Figure2Recursive(std::vector<double>& weights, std::size_t i, int p) {
  if (i >= weights.size() || p <= 1) {
    return;
  }
  double suffix = 0.0;
  for (std::size_t j = i; j < weights.size(); ++j) {
    suffix += weights[j];
  }
  if (weights[i] * static_cast<double>(p) > suffix) {
    Figure2Recursive(weights, i + 1, p - 1);
    double sum_after = 0.0;
    for (std::size_t j = i + 1; j < weights.size(); ++j) {
      sum_after += weights[j];
    }
    weights[i] = sum_after / static_cast<double>(p - 1);
  }
}

std::vector<double> Figure2Reference(const std::vector<double>& weights, int num_cpus) {
  std::vector<double> result = weights;
  if (result.size() <= static_cast<std::size_t>(num_cpus)) {
    for (auto& w : result) {
      w = 1.0;
    }
    return result;
  }
  Figure2Recursive(result, 0, num_cpus);
  return result;
}

TEST(ReadjustVectorParityTest, MatchesFigure2RecursionAtLargeN) {
  // Integer-valued weights sum exactly in double precision, so the two
  // summation orders (per-level rescan vs one running suffix) must agree to
  // the last bit on which threads get capped; the capped values themselves can
  // differ only by accumulated rounding of the handful of non-integer caps.
  for (const int cpus : {2, 8, 64, 256}) {
    for (const int n : {300, 5000, 50000}) {
      common::Rng rng(7000 + static_cast<std::uint64_t>(cpus * 31 + n));
      std::vector<double> w;
      w.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        // Heavy-tailed draw so several threads actually violate Equation 1.
        const auto r = rng.UniformInt(1, 100);
        w.push_back(static_cast<double>(r <= 3 ? rng.UniformInt(n, 40 * n) : r));
      }
      std::sort(w.begin(), w.end(), std::greater<>());
      const auto fast = ReadjustVector(w, cpus);
      const auto reference = Figure2Reference(w, cpus);
      ASSERT_EQ(fast.size(), reference.size());
      int capped = 0;
      for (std::size_t i = 0; i < fast.size(); ++i) {
        if (fast[i] != w[i]) {
          ++capped;
          EXPECT_NE(reference[i], w[i]) << "cap-set mismatch at " << i;
          EXPECT_NEAR(fast[i], reference[i], 1e-9 * reference[i])
              << "cpus=" << cpus << " n=" << n << " i=" << i;
        } else {
          EXPECT_EQ(reference[i], w[i]) << "cap-set mismatch at " << i;
        }
      }
      EXPECT_LE(capped, cpus - 1);
    }
  }
}

TEST(ReadjustVectorParityTest, FractionalWeightsMatchToRounding) {
  // Non-integer weights do not sum exactly, and the single-pass form uses a
  // different summation order than the per-index rescans of the recursion, so
  // parity here is to rounding, not to the bit: capped values within relative
  // 1e-12 and the same number of caps (a cap-set flip requires a feasibility
  // comparison to land within an ulp of its suffix sum, which random draws do
  // not produce).
  for (const int cpus : {2, 8, 64}) {
    common::Rng rng(9100 + static_cast<std::uint64_t>(cpus));
    for (int trial = 0; trial < 50; ++trial) {
      const int n = static_cast<int>(rng.UniformInt(cpus + 1, 4000));
      std::vector<double> w;
      w.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        const bool heavy = rng.UniformInt(1, 100) <= 3;
        const double base = heavy ? static_cast<double>(rng.UniformInt(n, 20 * n))
                                  : static_cast<double>(rng.UniformInt(1, 100));
        w.push_back(base + static_cast<double>(rng.UniformInt(0, 999)) / 1000.0);
      }
      std::sort(w.begin(), w.end(), std::greater<>());
      const auto fast = ReadjustVector(w, cpus);
      const auto reference = Figure2Reference(w, cpus);
      ASSERT_EQ(fast.size(), reference.size());
      int fast_caps = 0;
      int reference_caps = 0;
      for (std::size_t i = 0; i < fast.size(); ++i) {
        fast_caps += fast[i] != w[i] ? 1 : 0;
        reference_caps += reference[i] != w[i] ? 1 : 0;
        EXPECT_NEAR(fast[i], reference[i], 1e-12 * reference[i]) << "cpus=" << cpus << " i=" << i;
      }
      EXPECT_EQ(fast_caps, reference_caps) << "cpus=" << cpus;
    }
  }
}

TEST(ReadjustVectorParityTest, BitIdenticalOnIntegerWeightsWithOneCap) {
  // With a single infeasible thread every term of the assignment sum is an
  // original integer weight: both implementations compute the same exact
  // suffix, so the results are bit-identical, not merely close.
  for (const int cpus : {2, 4, 16}) {
    std::vector<double> w(1000, 1.0);
    w[0] = 100000.0;
    const auto fast = ReadjustVector(w, cpus);
    const auto reference = Figure2Reference(w, cpus);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(fast[i], reference[i]) << i;
    }
  }
}

// --- ReadjustQueue: production form matches the reference -----------------------

class QueueFixture {
 public:
  explicit QueueFixture(const std::vector<double>& weights) {
    entities_.resize(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      entities_[i] = std::make_unique<Entity>();
      entities_[i]->tid = static_cast<ThreadId>(i);
      entities_[i]->weight() = weights[i];
      entities_[i]->phi() = weights[i];
      queue_.Append(entities_[i].get());
      total_ += weights[i];
    }
  }

  ~QueueFixture() { queue_.Clear(); }

  WeightQueue& queue() { return queue_; }
  ReadjustState& state() { return state_; }
  double total() const { return total_; }

  bool Readjust(int cpus) { return ReadjustQueue(queue_, total_, cpus, state_); }

  std::vector<double> PhisInQueueOrder() {
    std::vector<double> phis;
    for (Entity* e = queue_.front(); e != nullptr; e = queue_.next(e)) {
      phis.push_back(e->phi());
    }
    return phis;
  }

 private:
  std::vector<std::unique_ptr<Entity>> entities_;
  WeightQueue queue_;
  ReadjustState state_;
  double total_ = 0.0;
};

TEST(ReadjustQueueTest, MatchesReferenceOnPaperExample) {
  QueueFixture fx({1.0, 10.0, 1.0, 1.0, 1.0});
  fx.Readjust(2);
  const auto expected = ReadjustVector({10.0, 1.0, 1.0, 1.0, 1.0}, 2);
  EXPECT_EQ(fx.PhisInQueueOrder(), expected);
}

TEST(ReadjustQueueTest, ReturnsChangedFlag) {
  QueueFixture fx({10.0, 1.0, 1.0});
  EXPECT_TRUE(fx.Readjust(2));
  // Second run: already readjusted, nothing changes.
  EXPECT_FALSE(fx.Readjust(2));
}

TEST(ReadjustQueueTest, FeasibleReturnsFalse) {
  QueueFixture fx({1.0, 1.0, 1.0});
  EXPECT_FALSE(fx.Readjust(2));
}

TEST(ReadjustQueueTest, EmptyQueue) {
  QueueFixture fx({});
  EXPECT_FALSE(fx.Readjust(2));
}

TEST(ReadjustQueueTest, CapsTrackedAndRestored) {
  // {10,1,1} on 2 CPUs caps the heavy thread; growing the light side makes the
  // assignment feasible again and the former cap must return to its weight.
  QueueFixture fx({10.0, 1.0, 1.0});
  fx.Readjust(2);
  ASSERT_EQ(fx.state().capped.size(), 1u);
  Entity* heavy = fx.state().capped[0];
  EXPECT_TRUE(heavy->capped);
  EXPECT_LT(heavy->phi(), 10.0);
  // Simulate the world changing so the weight becomes feasible: 10/30 <= 1/2.
  // (Add weight by editing total; the queue itself still holds three entities,
  // so emulate with a direct second pass at a higher total.)
  const bool changed = ReadjustQueue(fx.queue(), 30.0, 2, fx.state());
  EXPECT_TRUE(changed);
  EXPECT_FALSE(heavy->capped);
  EXPECT_DOUBLE_EQ(heavy->phi(), 10.0);
  EXPECT_TRUE(fx.state().capped.empty());
}

// The weight queue appends to a run, so the run of weight 2.2 lists tid 5
// before tid 2.  In exact arithmetic both or neither would be capped, but
// with a running weight sum of 13.2 rounding caps one: 2.2 * 6 rounds above
// 13.2, while 2.2 * 5 does not exceed 13.2 - 2.2.  The cap must go to the
// lower tid, as in a (weight, tid) ordered queue.  (Its phi, 11.0 / 5,
// rounds back to 2.2 here; in general it may differ from w by an ulp, which
// reorders surpluses.)
TEST(ReadjustQueueTest, RoundingSplitRunCapsItsLowestTids) {
  ASSERT_GT(2.2 * 6.0, 13.2);
  ASSERT_FALSE(2.2 * 5.0 > 13.2 - 2.2);
  std::vector<std::unique_ptr<Entity>> entities;
  WeightQueue queue;
  for (const auto& [tid, weight] : std::vector<std::pair<ThreadId, double>>{
           {5, 2.2}, {2, 2.2}, {10, 1.76}, {11, 1.76}, {12, 1.76}, {13, 1.76}, {14, 1.76}}) {
    entities.push_back(std::make_unique<Entity>());
    entities.back()->tid = tid;
    entities.back()->weight() = weight;
    entities.back()->phi() = weight;
    queue.Append(entities.back().get());
  }
  ASSERT_EQ(queue.front()->tid, 5);
  ReadjustState state;
  ReadjustQueue(queue, 13.2, 6, state);
  ASSERT_EQ(state.capped.size(), 1U);
  EXPECT_EQ(state.capped[0]->tid, 2);
  EXPECT_FALSE(entities[0]->capped);
  EXPECT_EQ(entities[0]->phi(), 2.2);
  EXPECT_DOUBLE_EQ(entities[1]->phi(), (13.2 - 2.2) / 5.0);
  queue.Clear();
}

TEST(ReadjustQueueTest, IsFeasibleAgreesWithEquationOne) {
  QueueFixture feasible({1.0, 1.0, 2.0});
  EXPECT_TRUE(IsFeasible(feasible.queue(), 4.0, 2));
  QueueFixture infeasible({10.0, 1.0, 1.0});
  EXPECT_FALSE(IsFeasible(infeasible.queue(), 12.0, 2));
}

TEST(ReadjustQueuePropertyTest, EquivalentToRecursiveReferenceRandomized) {
  common::Rng rng(555);
  for (int trial = 0; trial < 300; ++trial) {
    const int cpus = static_cast<int>(rng.UniformInt(1, 8));
    const int t = static_cast<int>(rng.UniformInt(1, 30));
    std::vector<double> w;
    for (int i = 0; i < t; ++i) {
      w.push_back(static_cast<double>(rng.UniformInt(1, 5000)));
    }
    std::sort(w.begin(), w.end(), std::greater<>());

    QueueFixture fx(w);
    fx.Readjust(cpus);
    const auto expected = ReadjustVector(w, cpus);
    const auto actual = fx.PhisInQueueOrder();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_NEAR(actual[i], expected[i], 1e-6) << "trial " << trial << " i " << i;
    }
  }
}

}  // namespace
}  // namespace sfs::sched
