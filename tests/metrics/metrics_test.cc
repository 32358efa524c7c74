// Unit tests for the metrics library.

#include <gtest/gtest.h>

#include "src/metrics/fairness.h"
#include "src/metrics/response.h"
#include "src/metrics/service_sampler.h"
#include "src/sched/sfs.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::metrics {
namespace {

TEST(FairnessTest, JainIndexOneForProportional) {
  EXPECT_NEAR(JainIndex({30.0, 10.0, 20.0}, {3.0, 1.0, 2.0}), 1.0, 1e-12);
}

TEST(FairnessTest, JainIndexDropsForStarvation) {
  const double j = JainIndex({100.0, 0.0}, {1.0, 1.0});
  EXPECT_NEAR(j, 0.5, 1e-12);
}

TEST(FairnessTest, MaxGmsDeviation) {
  EXPECT_DOUBLE_EQ(MaxGmsDeviation({10.0, 20.0}, {12.0, 19.0}), 2.0);
  EXPECT_DOUBLE_EQ(MaxGmsDeviation({}, {}), 0.0);
}

TEST(FairnessTest, LongestStarvationFindsZeroRun) {
  // Increments: +1, 0, 0, 0, +1 -> longest flat run = 3 periods.
  const std::vector<Tick> series = {0, 1, 1, 1, 1, 2};
  EXPECT_EQ(LongestStarvation(series, Msec(100)), Msec(300));
}

TEST(FairnessTest, LongestStarvationZeroWhenAlwaysProgressing) {
  const std::vector<Tick> series = {0, 1, 2, 3};
  EXPECT_EQ(LongestStarvation(series, Msec(100)), 0);
}

TEST(ResponseTest, SummarizeComputesStats) {
  common::SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  const ResponseStats stats = Summarize(s);
  EXPECT_EQ(stats.samples, 100u);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 50.5);
  EXPECT_DOUBLE_EQ(stats.p95_ms, 95.0);
  EXPECT_DOUBLE_EQ(stats.max_ms, 100.0);
}

TEST(ServiceSamplerTest, AggregatesByLabel) {
  sched::SchedConfig config;
  config.num_cpus = 2;
  sched::Sfs scheduler(config);
  sim::Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "group"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "group"));
  ServiceSampler sampler(engine, Msec(500), {"group"});
  engine.RunUntil(Sec(2));
  const auto& series = sampler.Series("group");
  ASSERT_EQ(series.size(), 4u);
  // Two CPUs fully owned by the group: 1 s of aggregate service per 500 ms.
  EXPECT_EQ(series[0], Sec(1));
  EXPECT_EQ(series[3], Sec(4));
  EXPECT_EQ(sampler.times().back(), Sec(2));
}

TEST(ServiceSamplerTest, UntrackedLabelsIgnored) {
  sched::SchedConfig config;
  config.num_cpus = 1;
  sched::Sfs scheduler(config);
  sim::Engine engine(scheduler);
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "tracked"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "other"));
  ServiceSampler sampler(engine, Msec(500), {"tracked"});
  engine.RunUntil(Sec(1));
  // Only half the CPU went to "tracked".
  EXPECT_NEAR(static_cast<double>(sampler.Series("tracked").back()),
              static_cast<double>(Msec(500)), static_cast<double>(kDefaultQuantum));
}

}  // namespace
}  // namespace sfs::metrics
