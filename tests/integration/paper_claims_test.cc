// Integration tests asserting the paper's experimental claims end-to-end:
// every figure's qualitative result (who starves, who is proportional, who is
// isolated) must reproduce in the simulator.  These are the repository's
// ground-truth checks; the bench binaries print the same scenarios as tables.

#include <gtest/gtest.h>

#include "src/eval/scenarios.h"
#include "src/metrics/fairness.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;

// --- Example 1 / Figure 1: the infeasible weights problem -----------------------

TEST(Example1Test, SfqWithoutReadjustmentStarvesT1) {
  const auto result = RunExample1(SchedKind::kSfq, /*readjust=*/false);
  // T1 starves for ~0.9 s (900 quanta of 1 ms) after T3 arrives at t=1s.
  EXPECT_GT(result.t1_starvation, Msec(700));
}

TEST(Example1Test, ReadjustmentEliminatesStarvation) {
  const auto result = RunExample1(SchedKind::kSfq, /*readjust=*/true);
  EXPECT_LT(result.t1_starvation, Msec(50));
}

TEST(Example1Test, SfsEliminatesStarvation) {
  const auto result = RunExample1(SchedKind::kSfs, /*readjust=*/true);
  EXPECT_LT(result.t1_starvation, Msec(50));
}

TEST(Example1Test, StrideAndWfqShareThePathology) {
  // "Many recently proposed GPS-based algorithms ... also suffer from this
  // drawback": stride scheduling and WFQ starve T1 without readjustment too.
  // Stride scheduling's pass rule is SFQ's start-tag rule, so sched::Sfq runs
  // the stride schedule.
  EXPECT_GT(RunExample1(SchedKind::kSfq, false).t1_starvation, Msec(700));
  EXPECT_GT(RunExample1(SchedKind::kWfq, false).t1_starvation, Msec(500));
}

TEST(Example1Test, ReadjustmentRepairsStrideAndWfq) {
  EXPECT_LT(RunExample1(SchedKind::kSfq, true).t1_starvation, Msec(50));
  EXPECT_LT(RunExample1(SchedKind::kWfq, true).t1_starvation, Msec(50));
}

// --- Example 2: frequent arrivals/departures with feasible weights --------------

TEST(Example2Test, SfqOverServesShortJobs) {
  const auto result = RunExample2(SchedKind::kSfq);
  // Requested ratio is 15:50 = 0.3; SFQ gives each short job "as much processor
  // bandwidth as the [heavy] thread" — ratio near 1.
  EXPECT_GT(result.shorts_to_heavy_ratio, 0.8);
}

TEST(Example2Test, SfsKeepsShortJobsCloserToProportional) {
  const auto sfs = RunExample2(SchedKind::kSfs);
  const auto sfq = RunExample2(SchedKind::kSfq);
  // SFS pulls the chain well below SFQ's misallocation, toward the requested
  // 0.3 (it stays above it by a tag-quantization factor at the 200 ms quantum).
  EXPECT_LT(sfs.shorts_to_heavy_ratio, 0.65);
  EXPECT_GT(sfs.shorts_to_heavy_ratio, 0.2);
  EXPECT_LT(sfs.shorts_to_heavy_ratio, sfq.shorts_to_heavy_ratio - 0.25);
}

// --- Figure 3: heuristic accuracy ------------------------------------------------

TEST(Fig3Test, AccuracyHighAtK20) {
  // "examining the first 20 threads in each queue provides sufficient accuracy
  // (> 99%) even when the number of runnable threads is as large as 400."
  EXPECT_GT(HeuristicAccuracy(/*runnable=*/400, /*k=*/20), 99.0);
}

TEST(Fig3Test, AccuracyImprovesWithK) {
  const double k1 = HeuristicAccuracy(200, 1);
  const double k5 = HeuristicAccuracy(200, 5);
  const double k20 = HeuristicAccuracy(200, 20);
  EXPECT_LE(k1, k5 + 1e-9);
  EXPECT_LE(k5, k20 + 1e-9);
  EXPECT_GT(k20, 99.0);
}

TEST(Fig3Test, ExactWhenKCoversQueue) {
  EXPECT_DOUBLE_EQ(HeuristicAccuracy(100, 100), 100.0);
}

// --- Figure 4: impact of the weight readjustment algorithm ----------------------

TEST(Fig4Test, SfqWithoutReadjustmentStarvesT1AtT3Arrival) {
  const auto series = RunFig4(SchedKind::kSfq, /*readjust=*/false);
  // T1 makes no progress for many seconds after T3 arrives at t=15s.
  EXPECT_GT(metrics::LongestStarvation(series.Of("T1"), Msec(500)), Sec(5));
}

TEST(Fig4Test, SfqWithReadjustmentAllocatesProportionally) {
  const auto series = RunFig4(SchedKind::kSfq, /*readjust=*/true);
  EXPECT_LT(metrics::LongestStarvation(series.Of("T1"), Msec(500)), Sec(1));

  const auto& times = series.times;
  const auto& t1 = series.Of("T1");
  const auto& t2 = series.Of("T2");
  const auto& t3 = series.Of("T3");
  // Interval [0, 15): T1 and T2 readjusted to 1:1 (each one full CPU).
  std::size_t i15 = 0;
  std::size_t i30 = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] <= Sec(15)) {
      i15 = i;
    }
    if (times[i] <= Sec(30)) {
      i30 = i;
    }
  }
  EXPECT_NEAR(static_cast<double>(t1[i15]) / static_cast<double>(t2[i15]), 1.0, 0.05);
  // Interval [15, 30): weights 1:10:1 readjust to 1:2:1.
  const double d1 = static_cast<double>(t1[i30] - t1[i15]);
  const double d2 = static_cast<double>(t2[i30] - t2[i15]);
  const double d3 = static_cast<double>(t3[i30] - t3[i15]);
  EXPECT_NEAR(d2 / d1, 2.0, 0.2);
  EXPECT_NEAR(d3 / d1, 1.0, 0.1);
  // After T2 departs at 30s: T1 and T3 each get a full CPU.
  const double e1 = static_cast<double>(t1.back() - t1[i30]);
  const double e3 = static_cast<double>(t3.back() - t3[i30]);
  EXPECT_NEAR(e3 / e1, 1.0, 0.1);
}

TEST(Fig4Test, SfsMatchesReadjustedAllocation) {
  const auto series = RunFig4(SchedKind::kSfs, /*readjust=*/true);
  EXPECT_LT(metrics::LongestStarvation(series.Of("T1"), Msec(500)), Sec(1));
  // Slope ratio over [16s, 29.5s) — the 1:2:1 interval before T2 departs.
  const auto& t1 = series.Of("T1");
  const auto& t2 = series.Of("T2");
  std::size_t i16 = 0;
  std::size_t i29 = 0;
  for (std::size_t i = 0; i < series.times.size(); ++i) {
    if (series.times[i] <= Sec(16)) {
      i16 = i;
    }
    if (series.times[i] <= Msec(29500)) {
      i29 = i;
    }
  }
  const double d1 = static_cast<double>(t1[i29] - t1[i16]);
  const double d2 = static_cast<double>(t2[i29] - t2[i16]);
  EXPECT_NEAR(d2 / d1, 2.0, 0.25);
}

// --- Figure 5: the short jobs problem --------------------------------------------

TEST(Fig5Test, SfqMisallocatesUnderChurn) {
  const auto series = RunFig5(SchedKind::kSfq);
  const double t1 = static_cast<double>(series.Of("T1").back());
  const double shorts = static_cast<double>(series.Of("T_short").back());
  // Requested T1:T_short is 4:1, but SFQ gives the short jobs roughly as much
  // as T1 ("each set of tasks receives approximately an equal share").
  EXPECT_GT(shorts / t1, 0.65);
}

TEST(Fig5Test, SfsRestoresRequestedProportions) {
  const auto series = RunFig5(SchedKind::kSfs);
  const double t1 = static_cast<double>(series.Of("T1").back());
  const double group = static_cast<double>(series.Of("T2-21").back());
  const double shorts = static_cast<double>(series.Of("T_short").back());
  // 20 : 20x1 : 5 -> 4 : 4 : 1.  At the paper's 200 ms quantum the short-job
  // chain retains a tag-quantization bonus (see EXPERIMENTS.md), so the check is
  // "close to 4:4:1 and clearly better than SFQ", with the exact ratio verified
  // at a finer quantum below.
  EXPECT_NEAR(group / t1, 1.0, 0.2);
  EXPECT_GT(t1 / shorts, 2.0);
  const auto sfq = RunFig5(SchedKind::kSfq);
  EXPECT_LT(shorts / t1,
            static_cast<double>(sfq.Of("T_short").back()) /
                static_cast<double>(sfq.Of("T1").back()) -
                0.25);
}

TEST(Fig5Test, SfsExactAtFineQuantum) {
  // With 20 ms quanta the discretization vanishes and SFS delivers 4:4:1.
  const auto series = RunFig5(SchedKind::kSfs, Sec(30), Msec(20));
  const double t1 = static_cast<double>(series.Of("T1").back());
  const double group = static_cast<double>(series.Of("T2-21").back());
  const double shorts = static_cast<double>(series.Of("T_short").back());
  EXPECT_NEAR(group / t1, 1.0, 0.05);
  EXPECT_NEAR(t1 / shorts, 4.0, 0.5);
}

// --- Figure 6(a): proportionate allocation ---------------------------------------

class Fig6aTest : public ::testing::TestWithParam<int> {};

TEST_P(Fig6aTest, DhrystoneRatioTracksWeights) {
  const int wb = GetParam();
  const auto result = RunFig6a(SchedKind::kSfs, 1, wb);
  EXPECT_NEAR(result.ratio, static_cast<double>(wb), 0.1 * wb);
}

INSTANTIATE_TEST_SUITE_P(WeightRatios, Fig6aTest, ::testing::Values(1, 2, 4, 7));

// --- Figure 6(b): application isolation ------------------------------------------

TEST(Fig6bTest, SfsIsolatesDecoderFromCompilations) {
  const double fps0 = RunFig6b(SchedKind::kSfs, 0);
  const double fps10 = RunFig6b(SchedKind::kSfs, 10);
  EXPECT_NEAR(fps0, 30.0, 1.5);
  // "SFS is able to isolate the video decoder from the compilation workload."
  EXPECT_GT(fps10, 27.0);
}

TEST(Fig6bTest, TimeSharingDegradesWithLoad) {
  const double fps1 = RunFig6b(SchedKind::kTimeshare, 1);
  const double fps10 = RunFig6b(SchedKind::kTimeshare, 10);
  EXPECT_GT(fps1, 25.0);  // lightly loaded: fine
  // "...whereas the Linux time sharing scheduler causes the processor share of
  // the decoder to drop with increasing load."
  EXPECT_LT(fps10, 15.0);
  EXPECT_LT(fps10, fps1 * 0.6);
}

// --- Figure 6(c): interactive performance ----------------------------------------

TEST(Fig6cTest, SfsKeepsResponseTimesLow) {
  const auto stats = RunFig6c(SchedKind::kSfs, 10);
  EXPECT_GT(stats.samples, 200u);
  EXPECT_LT(stats.mean_ms, 20.0);
}

TEST(Fig6cTest, ComparableToTimeSharing) {
  const auto sfs = RunFig6c(SchedKind::kSfs, 8);
  const auto ts = RunFig6c(SchedKind::kTimeshare, 8);
  // "SFS provides response times that are comparable to the time sharing
  // scheduler": same order of magnitude, both small.
  EXPECT_LT(sfs.mean_ms, 20.0);
  EXPECT_LT(ts.mean_ms, 20.0);
}

TEST(Fig6cTest, ResponseTimeGrowsSlowlyWithLoad) {
  const auto light = RunFig6c(SchedKind::kSfs, 1);
  const auto heavy = RunFig6c(SchedKind::kSfs, 10);
  EXPECT_LT(light.mean_ms, heavy.mean_ms + 10.0);
  EXPECT_LT(heavy.mean_ms, 25.0);
}

}  // namespace
}  // namespace sfs::eval
