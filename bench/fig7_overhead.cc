// Figure 7 (Section 4.5): scheduling overhead vs number of runnable processes.
//
// The paper measures lmbench context-switch time for 0 KB processes as the run
// queue grows (0-50 processes), comparing SFS against the Linux time-sharing
// scheduler.  The real-code analogue here times one full reschedule operation —
// Charge(previous) + PickNext(cpu) — on the actual scheduler data structures,
// as a function of runnable-thread count.  The paper's shape: SFS costs more
// than time sharing and grows with the number of processes (Section 3.2
// complexity analysis); both are negligible vs the 200 ms quantum.  Here the
// ordering differs at large counts (see the footer printed below): the exact
// pick reads phi-class heads, not the paper's O(t) sorted surplus queue.
//
// Wall-clock measurements flow through Reporter::Timing, so the JSON document
// stays deterministic unless --timing is given.

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>

#include "src/common/table.h"
#include "src/eval/heuristic_sfs.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"
#include "src/sched/factory.h"
#include "src/sched/sharded.h"

namespace {

using sfs::harness::DoNotOptimize;
using sfs::sched::CpuId;
using sfs::sched::CreateScheduler;
using sfs::sched::SchedConfig;
using sfs::sched::SchedKind;
using sfs::sched::Scheduler;
using sfs::sched::ThreadId;

// One full reschedule on CPU 0 with `threads` runnable 0 KB processes.
// `heuristic_k` > 0 times the Section 3.2 heuristic model instead of `kind`.
double RescheduleNsPerOp(SchedKind kind, int heuristic_k, int threads) {
  SchedConfig config;
  config.num_cpus = 2;
  const std::unique_ptr<Scheduler> scheduler =
      heuristic_k > 0 ? std::make_unique<sfs::eval::HeuristicSfs>(config, heuristic_k)
                      : CreateScheduler(kind, config);
  for (ThreadId tid = 0; tid < threads; ++tid) {
    scheduler->AddThread(tid, 1.0 + (tid % 7));
  }
  ThreadId current = scheduler->PickNext(0);
  return sfs::harness::MeasureNsPerOp([&] {
    scheduler->Charge(current, sfs::Msec(1 + (current % 200)));
    current = scheduler->PickNext(0);
    DoNotOptimize(current);
  });
}

// Deterministic sharded-SFS drive: phases that drain shard 0 (blocking every
// thread homed there, forcing CPU 0 to steal) alternate with wake phases
// (re-imbalancing the weights so the periodic rebalancer moves threads).  A
// pure function of nothing, so the counters may enter the JSON as Metrics.
struct ShardedCounters {
  std::int64_t decisions = 0;
  std::int64_t steals = 0;
  std::int64_t rebalance_migrations = 0;
};

ShardedCounters DriveShardedCounters() {
  SchedConfig config;
  config.num_cpus = 2;
  config.shard_rebalance_period = 32;
  auto scheduler = CreateScheduler(SchedKind::kShardedSfs, config);
  auto* sharded = static_cast<sfs::sched::ShardedScheduler*>(scheduler.get());
  constexpr ThreadId kThreads = 8;
  for (ThreadId tid = 0; tid < kThreads; ++tid) {
    scheduler->AddThread(tid, 1.0 + (tid % 3));
  }
  std::array<ThreadId, 2> running = {sfs::sched::kInvalidThread, sfs::sched::kInvalidThread};
  ShardedCounters counters;
  for (int round = 0; round < 300; ++round) {
    for (CpuId cpu = 0; cpu < 2; ++cpu) {
      if (running[static_cast<std::size_t>(cpu)] != sfs::sched::kInvalidThread) {
        scheduler->Charge(running[static_cast<std::size_t>(cpu)], sfs::Msec(1 + round % 7));
      }
    }
    if (round % 40 == 10) {
      for (ThreadId tid = 0; tid < kThreads; ++tid) {
        if (scheduler->IsRunnable(tid) && !scheduler->IsRunning(tid) &&
            sharded->ShardOf(tid) == 0) {
          scheduler->Block(tid);
        }
      }
    } else if (round % 40 == 30) {
      for (ThreadId tid = 0; tid < kThreads; ++tid) {
        if (!scheduler->IsRunnable(tid)) {
          scheduler->Wakeup(tid);
        }
      }
    }
    // CPU 1 (the victim side) dispatches first so its shard is busy when the
    // drained CPU 0 looks for a steal (idle-source shards are never robbed).
    for (const CpuId cpu : {CpuId{1}, CpuId{0}}) {
      running[static_cast<std::size_t>(cpu)] = scheduler->PickNext(cpu);
      if (running[static_cast<std::size_t>(cpu)] != sfs::sched::kInvalidThread) {
        ++counters.decisions;
      }
    }
  }
  counters.steals = scheduler->steals();
  counters.rebalance_migrations = scheduler->shard_migrations();
  return counters;
}

}  // namespace

SFS_EXPERIMENT(fig7_overhead,
               .description = "Figure 7: reschedule cost vs runnable processes (wall-clock)",
               .schedulers = {"timeshare", "sfs", "sfq", "sharded-sfs"},
               .repetitions = 1, .warmup = 1, .deterministic = false) {
  using sfs::common::Table;

  reporter.out() << "=== Figure 7: scheduling overhead vs runnable processes ===\n"
                 << "One reschedule = Charge(previous) + PickNext(cpu); ns per operation.\n\n";

  struct Config {
    const char* label;
    SchedKind kind;
    int heuristic_k;
  };
  const Config configs[] = {
      {"timeshare", SchedKind::kTimeshare, 0},
      {"sfs_exact", SchedKind::kSfs, 0},
      {"sfs_heuristic_k20", SchedKind::kSfs, 20},
      {"sfq", SchedKind::kSfq, 0},
      {"sharded_sfs", SchedKind::kShardedSfs, 0},
  };
  // 2..50 processes, matching the x-axis of Figure 7 (plus larger counts to
  // show the asymptotic trend).
  const int process_counts[] = {2, 10, 18, 26, 34, 42, 50, 100, 400};

  Table table({"scheduler", "processes", "ns/reschedule"});
  for (const Config& config : configs) {
    for (const int threads : process_counts) {
      const double ns = RescheduleNsPerOp(config.kind, config.heuristic_k, threads);
      table.AddRow({config.label, Table::Cell(static_cast<std::int64_t>(threads)),
                    Table::Cell(ns, 1)});
      reporter.Timing(std::string(config.label) + "/" + std::to_string(threads) + "_procs", ns);
    }
  }
  table.Print(reporter.out());
  reporter.out()
      << "\nPaper's shape: SFS costs more than time sharing and grows with the\n"
      << "run-queue length; the k-bounded heuristic flattens the growth.  The\n"
      << "ordering here differs.  The paper's kernel re-sorts an O(t) surplus\n"
      << "queue; exact SFS here reads one head per phi class (threads of equal\n"
      << "weight rank by start tag) and re-files a charged thread within its\n"
      << "class only, so by a few hundred processes it is cheaper than time\n"
      << "sharing, which scans every runnable process per decision.  SFQ\n"
      << "dispatches the front of one start-tag queue and files a charged\n"
      << "thread by binary search over its runs of equal tag, so from a few\n"
      << "dozen processes on it is the cheapest of all; with a handful, time\n"
      << "sharing's scan is cheaper still.  The k=20 heuristic keeps a surplus\n"
      << "order of every process and is slower than the exact pick beyond a\n"
      << "handful of processes; it remains, as an evaluation model, for Figure\n"
      << "3's accuracy study.  The sharded variant keeps each decision\n"
      << "shard-local.  All are negligible against the 200 ms quantum.\n";
  reporter.Metric("schedulers_measured", static_cast<std::int64_t>(std::size(configs)));
  reporter.Metric("process_counts_measured",
                  static_cast<std::int64_t>(std::size(process_counts)));

  // Deterministic sharded counters: steals and rebalance migrations from a
  // fixed drain/wake drive (seed-independent, so plain Metrics).
  const ShardedCounters sharded = DriveShardedCounters();
  reporter.out() << "sharded-SFS drain/wake drive: " << sharded.decisions << " decisions, "
                 << sharded.steals << " steals, " << sharded.rebalance_migrations
                 << " rebalance migrations\n";
  reporter.Metric("sharded_sfs_decisions", sharded.decisions);
  reporter.Metric("sharded_sfs_steals", sharded.steals);
  reporter.Metric("sharded_sfs_rebalance_migrations", sharded.rebalance_migrations);
}
