// Property-based integration tests: invariants that must hold across schedulers,
// weight vectors, processor counts and arithmetic modes.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/eval/scenarios.h"
#include "src/metrics/fairness.h"
#include "src/metrics/service_sampler.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"
#include "tests/sched_kind_param_name.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;

// --- SFS tracks GMS within a bounded number of quanta ----------------------------

using DeviationParams = std::tuple<int /*cpus*/, int /*threads*/>;

class SfsGmsDeviationTest : public ::testing::TestWithParam<DeviationParams> {};

TEST_P(SfsGmsDeviationTest, DeviationBoundedByQuanta) {
  const auto [cpus, threads] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(cpus * 100 + threads));
  std::vector<double> weights;
  for (int i = 0; i < threads; ++i) {
    weights.push_back(static_cast<double>(rng.UniformInt(1, 10)));
  }
  const Tick horizon = Sec(60);
  const double deviation =
      GmsDeviationForWeights(SchedKind::kSfs, weights, cpus, horizon);
  // The discrete schedule can lag/lead the fluid by a few quanta, independent of
  // the horizon (it does not accumulate).
  EXPECT_LT(deviation, static_cast<double>(6 * kDefaultQuantum));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SfsGmsDeviationTest,
                         ::testing::Values(DeviationParams{1, 4}, DeviationParams{2, 3},
                                           DeviationParams{2, 8}, DeviationParams{4, 6},
                                           DeviationParams{4, 16}, DeviationParams{8, 24}));

// SFQ without readjustment accumulates large deviation under infeasible weights
// when the runnable set changes (the Example 1 shape: a late arrival is starved
// while the earlier threads' tags catch up) — the contrast property that
// motivates the whole paper.  Note a *static* infeasible mix self-caps under any
// work-conserving scheduler, so the late arrival is essential.
TEST(SfqGmsDeviationTest, InfeasibleWeightsDivergeWithoutReadjustment) {
  const std::vector<TimedArrival> arrivals = {{0, 1.0}, {0, 50.0}, {Sec(15), 1.0}};
  const double sfq = GmsDeviationForArrivals(SchedKind::kSfq, arrivals, 2, Sec(60),
                                             kDefaultQuantum, -1, /*scheduler_readjust=*/false);
  const double sfs = GmsDeviationForArrivals(SchedKind::kSfs, arrivals, 2, Sec(60),
                                             kDefaultQuantum, -1);
  EXPECT_GT(sfq, static_cast<double>(Sec(5)));  // diverges by seconds of service
  EXPECT_LT(sfs, static_cast<double>(6 * kDefaultQuantum));
}

// --- fixed-point arithmetic preserves fairness ------------------------------------

class FixedPointFairnessTest : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointFairnessTest, DigitsDoNotBreakProportions) {
  const int digits = GetParam();
  const std::vector<double> weights = {7.0, 3.0, 2.0, 1.0};
  const double deviation = GmsDeviationForWeights(SchedKind::kSfs, weights, 2, Sec(30),
                                                  kDefaultQuantum, digits);
  // Even 1 decimal digit keeps the schedule within a few quanta of fluid.
  EXPECT_LT(deviation, static_cast<double>(8 * kDefaultQuantum));
}

INSTANTIATE_TEST_SUITE_P(ScalingFactors, FixedPointFairnessTest,
                         ::testing::Values(1, 2, 4, 6, 8));

// --- proportional allocation across policies on a uniprocessor --------------------

class UniprocProportionalTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(UniprocProportionalTest, TwoToOneWeights) {
  sched::SchedConfig config;
  config.num_cpus = 1;
  auto scheduler = CreateScheduler(GetParam(), config);
  sim::Engine engine(*scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 2.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(60));
  const double ratio = static_cast<double>(engine.ServiceIncludingRunning(1)) /
                       static_cast<double>(engine.ServiceIncludingRunning(2));
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(GpsPolicies, UniprocProportionalTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kSfq, SchedKind::kWfq),
                         SchedKindParamName);

// --- multiprocessor proportionality for feasible weights --------------------------

class SmpProportionalTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(SmpProportionalTest, FeasibleWeightsHonoredOnTwoCpus) {
  sched::SchedConfig config;
  config.num_cpus = 2;
  auto scheduler = CreateScheduler(GetParam(), config);
  sim::Engine engine(*scheduler);
  // Weights 2:1:1 on 2 CPUs (feasible: 2/4 == 1/2): shares 1 : 0.5 : 0.5 CPUs.
  engine.AddTaskAt(0, workload::MakeInf(1, 2.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.AddTaskAt(0, workload::MakeInf(3, 1.0, "c"));
  engine.RunUntil(Sec(60));
  const double a = static_cast<double>(engine.ServiceIncludingRunning(1));
  const double b = static_cast<double>(engine.ServiceIncludingRunning(2));
  const double c = static_cast<double>(engine.ServiceIncludingRunning(3));
  EXPECT_NEAR(a / b, 2.0, 0.2);
  EXPECT_NEAR(b / c, 1.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(GpsPolicies, SmpProportionalTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kSfq),
                         SchedKindParamName);

// --- work conservation under mixed blocking workloads ------------------------------

class WorkConservationTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(WorkConservationTest, NoIdleWhileBacklogged) {
  sched::SchedConfig config;
  config.num_cpus = 2;
  auto scheduler = CreateScheduler(GetParam(), config);
  sim::Engine engine(*scheduler);
  // 4 always-runnable hogs guarantee backlog; compile jobs come and go.
  for (sched::ThreadId tid = 1; tid <= 4; ++tid) {
    engine.AddTaskAt(0, workload::MakeInf(tid, 1.0, "hog"));
  }
  for (sched::ThreadId tid = 5; tid <= 8; ++tid) {
    workload::CompileJob::Params params;
    params.seed = static_cast<std::uint64_t>(tid);
    engine.AddTaskAt(0, workload::MakeCompileJob(tid, 1.0, params, "gcc"));
  }
  engine.RunUntil(Sec(30));
  EXPECT_EQ(engine.idle_time(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WorkConservationTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kSfq, SchedKind::kWfq,
                                           SchedKind::kTimeshare),
                         SchedKindParamName);

// --- starvation freedom under infeasible weights for SFS ---------------------------

TEST(StarvationFreedomTest, SfsNeverStarvesUnderAnyWeights) {
  common::Rng rng(4242);
  for (int trial = 0; trial < 5; ++trial) {
    sched::SchedConfig config;
    config.num_cpus = 2;
    // A 10 ms quantum keeps the worst-case inter-service gap (quantum * sum(w) /
    // (w_min * p)) well under the starvation bound below even for 20:1 skews.
    config.quantum = Msec(10);
    auto scheduler = CreateScheduler(SchedKind::kSfs, config);
    sim::Engine engine(*scheduler);
    const int n = static_cast<int>(rng.UniformInt(3, 8));
    for (sched::ThreadId tid = 1; tid <= n; ++tid) {
      // Skewed and mostly infeasible weight requests.
      engine.AddTaskAt(0, workload::MakeInf(tid, static_cast<double>(rng.UniformInt(1, 20)),
                                            "t" + std::to_string(tid)));
    }
    metrics::ServiceSampler sampler(
        engine, Msec(500), [n] {
          std::vector<std::string> labels;
          for (int i = 1; i <= n; ++i) {
            labels.push_back("t" + std::to_string(i));
          }
          return labels;
        }());
    engine.RunUntil(Sec(20));
    for (int i = 1; i <= n; ++i) {
      EXPECT_LT(metrics::LongestStarvation(sampler.Series("t" + std::to_string(i)), Msec(500)),
                Sec(3))
          << "trial " << trial << " thread " << i;
    }
  }
}

}  // namespace
}  // namespace sfs::eval
