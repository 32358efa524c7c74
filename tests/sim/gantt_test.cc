// Tests for the views of the run intervals an engine records in its
// obs::Trace as kRun records: the ASCII Gantt renderer, and the "spurt"
// dynamics the paper uses to explain Figure 5 (Section 4.3).

#include "src/sim/gantt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/obs/trace.h"
#include "src/sched/factory.h"
#include "src/sched/sfs.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::sim {
namespace {

using sched::SchedConfig;
using sched::SchedKind;
using sched::ThreadId;

TEST(GanttTest, SoloThreadIsSolidRow) {
  sched::SchedConfig config;
  config.num_cpus = 1;
  sched::Sfs scheduler(config);
  obs::Trace trace(config.num_cpus);
  Engine engine(scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeFixedWork(1, 1.0, Sec(1), "solo"));
  engine.RunUntil(Sec(1));

  GanttOptions options;
  options.from = 0;
  options.to = Sec(1);
  options.width = 20;
  options.rows.emplace_back(1, "solo");
  const std::string out = RenderGantt(trace, options);
  EXPECT_EQ(out, "solo |####################|\n");
}

TEST(GanttTest, IdleHalfIsBlank) {
  sched::SchedConfig config;
  config.num_cpus = 1;
  sched::Sfs scheduler(config);
  obs::Trace trace(config.num_cpus);
  Engine engine(scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeFixedWork(1, 1.0, Msec(500), "t"));
  engine.RunUntil(Sec(1));

  GanttOptions options;
  options.to = Sec(1);
  options.width = 10;
  options.rows.emplace_back(1, "t");
  const std::string out = RenderGantt(trace, options);
  EXPECT_EQ(out, "t |#####     |\n");
}

TEST(GanttTest, AlternatingThreadsSharePartially) {
  sched::SchedConfig config;
  config.num_cpus = 1;
  config.quantum = Msec(50);
  sched::Sfs scheduler(config);
  obs::Trace trace(config.num_cpus);
  Engine engine(scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(1));

  GanttOptions options;
  options.to = Sec(1);
  options.width = 10;  // 100ms per column = one a-quantum + one b-quantum
  options.rows.emplace_back(1, "a");
  options.rows.emplace_back(2, "b");
  const std::string out = RenderGantt(trace, options);
  // Every column shows ~50% occupancy for both threads.
  EXPECT_EQ(out, "a |::::::::::|\nb |::::::::::|\n");
}

TEST(GanttTest, UnknownThreadsAndEmptyWindow) {
  sched::SchedConfig config;
  config.num_cpus = 1;
  sched::Sfs scheduler(config);
  obs::Trace trace(config.num_cpus);
  Engine engine(scheduler, {.trace = &trace});
  engine.RunUntil(Msec(10));
  GanttOptions options;
  options.rows.emplace_back(99, "ghost");
  EXPECT_EQ(RenderGantt(trace, options), "");  // no intervals at all -> to == 0
}

TEST(GanttTest, LabelsPadToSameWidth) {
  sched::SchedConfig config;
  config.num_cpus = 2;
  sched::Sfs scheduler(config);
  obs::Trace trace(config.num_cpus);
  Engine engine(scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "x"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "y"));
  engine.RunUntil(Msec(400));
  GanttOptions options;
  options.to = Msec(400);
  options.width = 4;
  options.rows.emplace_back(1, "ab");
  options.rows.emplace_back(2, "abcdef");
  const std::string out = RenderGantt(trace, options);
  // Both rows align at the same '|' column.
  EXPECT_NE(out.find("ab     |"), std::string::npos);
  EXPECT_NE(out.find("abcdef |"), std::string::npos);
}

TEST(GanttDeathTest, WrappedCpuRingIsRejected) {
  // Four records per ring: the ring wraps after two dispatches, and the chart
  // would draw the overwritten intervals as idle time.
  sched::SchedConfig config;
  config.num_cpus = 1;
  config.quantum = Msec(50);
  sched::Sfs scheduler(config);
  obs::Trace trace(config.num_cpus, /*capacity_per_ring=*/4);
  Engine engine(scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.RunUntil(Sec(1));
  ASSERT_GT(trace.ring(0).dropped(), 0u);
  GanttOptions options;
  options.rows.emplace_back(1, "a");
  EXPECT_DEATH(RenderGantt(trace, options), "CHECK failed");
}

SchedConfig Config(int cpus, Tick quantum = kDefaultQuantum) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  return config;
}

// The kRun records of every CPU ring, in ring order.
std::vector<obs::TraceRecord> RunRecords(const obs::Trace& trace) {
  std::vector<obs::TraceRecord> runs;
  for (int cpu = 0; cpu < trace.num_cpus(); ++cpu) {
    EXPECT_EQ(trace.ring(cpu).dropped(), 0u) << "cpu " << cpu;
    trace.ring(cpu).ForEach([&runs](const obs::TraceRecord& record) {
      if (record.kind == obs::TraceEventKind::kRun) {
        runs.push_back(record);
      }
    });
  }
  return runs;
}

struct Spurts {
  Tick max = 0;            // longest spurt
  std::int64_t count = 0;  // distinct spurts
};

// A spurt is a contiguous single-thread occupancy of one CPU: consecutive
// intervals of `tid` on the same CPU with no gap merge (a thread re-picked
// after quantum expiry continues its spurt).
Spurts SpurtsOf(const obs::Trace& trace, ThreadId tid) {
  std::vector<obs::TraceRecord> runs = RunRecords(trace);
  std::erase_if(runs, [tid](const obs::TraceRecord& r) { return r.tid != tid; });
  // A thread runs on one CPU at a time, so start order is time order.
  std::sort(runs.begin(), runs.end(),
            [](const obs::TraceRecord& a, const obs::TraceRecord& b) { return a.ts < b.ts; });
  Spurts spurts;
  Tick current = 0;
  Tick last_end = -1;
  int last_cpu = -1;
  for (const obs::TraceRecord& r : runs) {
    if (r.ts == last_end && r.cpu == last_cpu) {
      current += r.arg;
    } else {
      current = r.arg;
      ++spurts.count;
    }
    spurts.max = std::max(spurts.max, current);
    last_end = r.ts + r.arg;
    last_cpu = r.cpu;
  }
  return spurts;
}

TEST(TraceTest, RecordsRunIntervals) {
  auto scheduler = CreateScheduler(SchedKind::kSfs, Config(1, Msec(100)));
  obs::Trace trace(1);
  Engine engine(*scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(1));
  // ~10 quanta of 100 ms over 1 s on one CPU.
  const std::vector<obs::TraceRecord> runs = RunRecords(trace);
  EXPECT_GE(runs.size(), 9u);
  Tick total = 0;
  for (const obs::TraceRecord& run : runs) {
    EXPECT_GT(run.arg, 0);
    total += run.arg;
  }
  EXPECT_LE(total, Sec(1));
}

TEST(TraceTest, SoloThreadIsOneLongSpurt) {
  auto scheduler = CreateScheduler(SchedKind::kSfs, Config(1, Msec(100)));
  obs::Trace trace(1);
  Engine engine(*scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeFixedWork(1, 1.0, Sec(1), "solo"));
  engine.RunUntil(Sec(2));
  // Re-picked at every quantum boundary with no competitor: one 1 s spurt.
  const Spurts spurts = SpurtsOf(trace, 1);
  EXPECT_EQ(spurts.max, Sec(1));
  EXPECT_EQ(spurts.count, 1);
}

TEST(TraceTest, AlternatingThreadsHaveQuantumSpurts) {
  auto scheduler = CreateScheduler(SchedKind::kSfs, Config(1, Msec(100)));
  obs::Trace trace(1);
  Engine engine(*scheduler, {.trace = &trace});
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "a"));
  engine.AddTaskAt(0, workload::MakeInf(2, 1.0, "b"));
  engine.RunUntil(Sec(2));
  // Equal weights alternate every quantum: spurts never exceed one quantum.
  EXPECT_LE(SpurtsOf(trace, 1).max, Msec(100));
  EXPECT_LE(SpurtsOf(trace, 2).max, Msec(100));
}

// The paper's Section 4.3 mechanism: "SFQ schedules threads in 'spurts'" —
// the high-weight thread T1 occupies a processor continuously for long
// stretches under SFQ; SFS interleaves far more finely at the same workload.
TEST(TraceTest, SfqSpurtsLongerThanSfsInFig5Workload) {
  // The full Figure 5 workload, including the short-job chain: it is the churn
  // that distinguishes the policies (a static mix lets the high-weight thread
  // hold the virtual-time floor and spurt under both).
  auto run = [](SchedKind kind) {
    auto scheduler = CreateScheduler(kind, Config(2));
    obs::Trace trace(2);
    Engine engine(*scheduler, {.trace = &trace});
    ThreadId next_tid = 1;
    engine.AddTaskAt(0, workload::MakeInf(next_tid++, 20.0, "T1"));
    for (int i = 0; i < 20; ++i) {
      engine.AddTaskAt(0, workload::MakeInf(next_tid++, 1.0, "T2-21"));
    }
    engine.SetExitHook([&next_tid](Engine& e, Task& task) {
      if (task.label() == "T_short") {
        e.AddTaskAt(e.now(), workload::MakeFixedWork(next_tid++, 5.0, Msec(300), "T_short"));
      }
    });
    engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, 5.0, Msec(300), "T_short"));
    engine.RunUntil(Sec(30));
    return SpurtsOf(trace, 1).max;
  };
  const Tick sfq_spurt = run(SchedKind::kSfq);
  const Tick sfs_spurt = run(SchedKind::kSfs);
  // Under SFQ, T1 runs in multi-second spurts while the others' start tags
  // catch up; SFS breaks the monopoly into much shorter stretches.
  EXPECT_GT(sfq_spurt, Sec(2));
  EXPECT_LT(sfs_spurt, sfq_spurt / 2);
}

}  // namespace
}  // namespace sfs::sim
