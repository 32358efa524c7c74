// Table 1 (Section 4.5): lmbench-style scheduling overheads.
//
// The paper reports lmbench latencies on the real kernel.  The user-level
// analogues measured here exercise the same scheduler code paths (see DESIGN.md
// "Substitutions"):
//
//   lmbench row                      -> analogue
//   syscall overhead                 -> getweight lookup (thread-table access)
//   fork()                           -> AddThread + RemoveThread (entity setup,
//                                       queue insertion, readjustment)
//   exec()                           -> SetWeight (weight change + readjustment)
//   ctx switch (2 proc / 0KB)        -> Charge+PickNext with 2 threads
//   ctx switch (8 proc / 16KB)       -> Charge+PickNext with 8 threads, each
//                                       touching a 16KB working set on switch
//   ctx switch (16 proc / 64KB)      -> same with 16 threads x 64KB
//
// Run for both the time-sharing baseline and SFS; the paper's shape is that SFS
// costs a few microseconds more per switch, vanishing against the 200 ms
// quantum, with the gap narrowing as working sets dominate.  A second section
// measures the cooperative-switch latency with real std::threads under the
// user-level executor.  Everything here is wall-clock; it reaches the JSON only
// under --timing.

#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/runtime/executor.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"
#include "src/sched/factory.h"

namespace {

using sfs::harness::DoNotOptimize;
using sfs::harness::Reporter;
using sfs::sched::CreateScheduler;
using sfs::sched::SchedConfig;
using sfs::sched::SchedKind;
using sfs::sched::ThreadId;

std::unique_ptr<sfs::sched::Scheduler> Make(SchedKind kind, int threads) {
  SchedConfig config;
  config.num_cpus = 2;
  auto scheduler = CreateScheduler(kind, config);
  for (ThreadId tid = 0; tid < threads; ++tid) {
    scheduler->AddThread(tid, 1.0);
  }
  return scheduler;
}

double SyscallGetWeightNs(SchedKind kind) {
  auto scheduler = Make(kind, 16);
  ThreadId tid = 0;
  return sfs::harness::MeasureNsPerOp([&] {
    DoNotOptimize(scheduler->GetWeight(tid));
    tid = (tid + 1) % 16;
  });
}

double ForkAddRemoveNs(SchedKind kind) {
  auto scheduler = Make(kind, 16);
  ThreadId next = 1000;
  return sfs::harness::MeasureNsPerOp([&] {
    scheduler->AddThread(next, 2.0);
    scheduler->RemoveThread(next);
    ++next;
  });
}

double ExecSetWeightNs(SchedKind kind) {
  auto scheduler = Make(kind, 16);
  double w = 1.0;
  return sfs::harness::MeasureNsPerOp([&] {
    scheduler->SetWeight(3, w);
    w = w >= 64.0 ? 1.0 : w * 2.0;
  });
}

// Context switch with `threads` processes each owning a `kb` KiB working set
// that the incoming thread touches (lmbench's array-walk model).
double CtxSwitchNs(SchedKind kind, int threads, int kb) {
  auto scheduler = Make(kind, threads);
  std::vector<std::vector<char>> working_sets(static_cast<std::size_t>(threads));
  for (auto& ws : working_sets) {
    ws.assign(static_cast<std::size_t>(kb) * 1024, 1);
  }
  ThreadId current = scheduler->PickNext(0);
  std::int64_t sum = 0;
  return sfs::harness::MeasureNsPerOp([&] {
    scheduler->Charge(current, sfs::Msec(10));
    current = scheduler->PickNext(0);
    auto& ws = working_sets[static_cast<std::size_t>(current)];
    for (std::size_t i = 0; i < ws.size(); i += 64) {
      sum += ws[i]++;
    }
    DoNotOptimize(sum);
  });
}

// Real-thread section: actual std::threads under the user-level executor, with
// lmbench's working-set-touch model inside each work unit.  The reported value
// is the preempt-flag-to-yield latency — the cooperative analogue of lmbench's
// context-switch time.  Since the executor went concurrent (one dispatcher
// thread per CPU driving the scheduler in parallel under the scheduler.h
// locking contract), these latencies include real cross-dispatcher lock
// traffic — sharded-sfs rides per-shard locks, the flat policies one coarse
// dispatch mutex; abl_lock_contention isolates that difference as p grows.
void RealThreadSection(Reporter& reporter) {
  using sfs::runtime::Executor;
  sfs::common::Table table({"config", "scheduler", "runtime", "median switch (us)",
                            "p95 (us)", "switches"});
  struct Shape {
    int procs;
    int kb;
  };
  // Runtime axis: dispatcher affinity (floating vs pinned to core
  // cpu%cores).  The slug doubles as the JSON key segment for the
  // non-default cell.
  struct Variant {
    const char* label;
    const char* slug;
    bool pinned;
  };
  constexpr Variant kDefault{"unpinned", "", false};
  auto run_cell = [&](SchedKind kind, Shape shape, const Variant& variant) {
    SchedConfig config;
    config.num_cpus = 2;
    auto scheduler = CreateScheduler(kind, config);
    Executor::Config exec_config;
    exec_config.quantum = sfs::Msec(2);
    exec_config.pin_dispatchers = variant.pinned;
    Executor executor(*scheduler, exec_config);
    for (ThreadId tid = 0; tid < shape.procs; ++tid) {
      auto buffer = std::make_shared<std::vector<char>>(
          static_cast<std::size_t>(shape.kb) * 1024, 1);
      executor.AddTask(tid, 1.0, [buffer] {
        const auto end =
            std::chrono::steady_clock::now() + std::chrono::microseconds(30);
        std::int64_t sum = 0;
        do {
          for (std::size_t i = 0; i < buffer->size(); i += 64) {
            sum += (*buffer)[i]++;
          }
        } while (std::chrono::steady_clock::now() < end);
        DoNotOptimize(sum);
        return true;
      });
    }
    executor.Run(sfs::Msec(400));
    const auto& lat = executor.preempt_latencies();
    const std::string shape_label =
        std::to_string(shape.procs) + "proc_" + std::to_string(shape.kb) + "KB";
    table.AddRow({std::to_string(shape.procs) + " proc/" + std::to_string(shape.kb) + "KB",
                  std::string(scheduler->name()), variant.label,
                  sfs::common::Table::Cell(lat.Percentile(50), 1),
                  sfs::common::Table::Cell(lat.Percentile(95), 1),
                  sfs::common::Table::Cell(lat.count())});
    // The default variant keeps the historical key so trajectories stay
    // comparable across PRs; variants append their slug.
    const std::string key_mid = variant.slug[0] == '\0'
                                    ? std::string(scheduler->name())
                                    : std::string(scheduler->name()) + "/" + variant.slug;
    reporter.Timing("executor/" + shape_label + "/" + key_mid + "/median_us",
                    lat.Percentile(50));
  };
  for (const Shape shape : {Shape{2, 0}, Shape{8, 16}, Shape{16, 64}}) {
    for (const SchedKind kind :
         {SchedKind::kTimeshare, SchedKind::kSfs, SchedKind::kShardedSfs}) {
      run_cell(kind, shape, kDefault);
    }
  }
  // Core pinning on the contended shape under sharded SFS, the
  // configuration abl_lock_contention studies in depth.
  run_cell(SchedKind::kShardedSfs, Shape{8, 16}, Variant{"pinned", "targeted_pinned", true});
  reporter.out() << "\n=== Table 1 (real threads): cooperative switch latency under the\n"
                 << "user-level runtime (2 virtual CPUs, 2ms quantum, 30us work units;\n"
                 << "'runtime' = dispatcher affinity) ===\n\n";
  table.Print(reporter.out());
  reporter.out() << '\n';
}

}  // namespace

SFS_EXPERIMENT(table1_lmbench,
               .description = "Table 1: lmbench-analogue scheduler overheads (wall-clock)",
               .schedulers = {"timeshare", "sfs", "sharded-sfs"},
               .repetitions = 1, .warmup = 1, .deterministic = false) {
  using sfs::common::Table;

  RealThreadSection(reporter);

  reporter.out() << "=== Table 1 (scheduler code paths): ns per operation ===\n\n";
  struct RowSpec {
    const char* label;
    double (*measure)(SchedKind);
  };
  const RowSpec rows[] = {
      {"syscall_getweight", &SyscallGetWeightNs},
      {"fork_add_remove", &ForkAddRemoveNs},
      {"exec_setweight", &ExecSetWeightNs},
      {"ctx_switch_2p_0KB", [](SchedKind kind) { return CtxSwitchNs(kind, 2, 0); }},
      {"ctx_switch_8p_16KB", [](SchedKind kind) { return CtxSwitchNs(kind, 8, 16); }},
      {"ctx_switch_16p_64KB", [](SchedKind kind) { return CtxSwitchNs(kind, 16, 64); }},
  };
  Table table({"operation", "timeshare (ns)", "sfs (ns)"});
  for (const RowSpec& row : rows) {
    const double ts_ns = row.measure(SchedKind::kTimeshare);
    const double sfs_ns = row.measure(SchedKind::kSfs);
    table.AddRow({row.label, Table::Cell(ts_ns, 1), Table::Cell(sfs_ns, 1)});
    reporter.Timing(std::string(row.label) + "/timeshare_ns", ts_ns);
    reporter.Timing(std::string(row.label) + "/sfs_ns", sfs_ns);
  }
  table.Print(reporter.out());
  reporter.out() << "\nPaper's shape: SFS costs a few microseconds more per operation than\n"
                 << "time sharing — negligible against the 200 ms quantum.\n";
  reporter.Metric("operations_measured", static_cast<std::int64_t>(std::size(rows)));
}
