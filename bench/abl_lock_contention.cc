// Ablation A11: dispatch-lock granularity under concurrent per-CPU
// dispatchers.
//
// The paper's kernel runs schedule() concurrently on every processor; the
// user-level executor now does the same with one dispatcher thread per CPU
// (src/runtime/executor.h).  This experiment measures what the locking
// contract costs as p grows: the latency of one scheduling decision —
// dispatch-lock acquisition (including contention with the other CPUs'
// dispatchers) plus PickNext — under three configurations over the same
// workload:
//
//   sfs/global            flat SFS: every CPU's dispatch takes the one
//                         scheduler-wide mutex (the coarse contract flat
//                         policies get by construction)
//   sharded/global        per-CPU SFS shards behind one big dispatch mutex —
//                         the pre-concurrent executor's serialization,
//                         reproduced here with one bench-wide mutex
//   sharded/per-shard     the full contract: each dispatcher takes only its
//                         shard's mutex, so decisions on different CPUs
//                         overlap and only cross-shard steals synchronize
//
// The harness mirrors runtime::Executor's dispatcher loop — pick under
// LockDispatch, "run" the pick, charge under LockDispatch — but replaces the
// granted worker's real quantum with a fixed short think time, so the lock
// path is the only variable between configurations (real spinning workers
// would just measure host-core oversubscription).  The interesting signal on
// a host with fewer cores than p is the tail: a global-lock holder that the
// OS deschedules mid-decision convoys *every* other dispatcher behind it
// until it runs again, so mean/p99 inflate with p, while per-shard
// dispatchers convoy nobody.  Everything here is wall-clock; it reaches the
// JSON only under --timing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/table.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"
#include "src/obs/metrics.h"
#include "src/runtime/executor.h"
#include "src/sched/factory.h"

namespace {

using sfs::harness::Reporter;
using sfs::obs::HistogramSnapshot;
using sfs::obs::LogHistogram;
using sfs::sched::CreateScheduler;
using sfs::sched::SchedConfig;
using sfs::sched::SchedKind;
using sfs::sched::ThreadId;

struct ModeSpec {
  const char* label;
  SchedKind kind;
  bool big_lock;  // funnel every scheduler call through one bench-wide mutex
};

struct ModeResult {
  HistogramSnapshot latency;  // one decision: lock acquisition + PickNext, ns
  HistogramSnapshot wait;     // time blocked acquiring the dispatch locks, ns
  int max_overlap = 0;        // dispatchers observed inside dispatch at once
};

ModeResult RunMode(const ModeSpec& mode, int cpus) {
  SchedConfig config;
  config.num_cpus = cpus;
  auto scheduler = CreateScheduler(mode.kind, config);
  {
    auto guard = scheduler->LockLifecycle();
    // Two CPU-bound tasks per processor: every shard always has a runnable
    // thread queued, so no dispatch ever comes up empty or steals.
    for (ThreadId tid = 0; tid < 2 * cpus; ++tid) {
      scheduler->AddThread(tid, 1.0);
    }
  }

  constexpr sfs::Tick kChargeTicks = 5;
  std::mutex big_mu;
  std::atomic<bool> stop{false};
  // Serialization witness: >1 is possible only when two dispatchers are
  // inside dispatch critical sections at the same time — i.e. dispatch is
  // genuinely not serialized.  (Even on a host with a single core this
  // triggers: the OS preempts a dispatcher mid-decision and another enters.)
  std::atomic<int> in_dispatch{0};
  std::atomic<int> max_overlap{0};
  // Sharded exactly like the executor's histograms: each dispatcher records
  // into its own shard, merge happens once at the end.  Sampling therefore
  // never serializes the dispatchers it is measuring.
  LogHistogram latency_hist(cpus);
  LogHistogram wait_hist(cpus);

  auto locked_section = [&](int cpu, auto&& body) -> std::int64_t {
    const auto requested = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> big =
        mode.big_lock ? std::unique_lock<std::mutex>(big_mu) : std::unique_lock<std::mutex>();
    auto guard = scheduler->LockDispatch(cpu);
    const auto acquired = std::chrono::steady_clock::now();
    const int overlap = in_dispatch.fetch_add(1) + 1;
    int seen = max_overlap.load(std::memory_order_relaxed);
    while (overlap > seen &&
           !max_overlap.compare_exchange_weak(seen, overlap, std::memory_order_relaxed)) {
    }
    body();
    in_dispatch.fetch_sub(1);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(acquired - requested).count();
  };

  std::vector<std::thread> dispatchers;
  dispatchers.reserve(static_cast<std::size_t>(cpus));
  for (int cpu = 0; cpu < cpus; ++cpu) {
    dispatchers.emplace_back([&, cpu] {
      // Back-to-back dispatch (quantum -> 0 limit): maximizes decision rate so
      // the lock path dominates, the same saturation regime lmbench's
      // context-switch rows probe.
      while (!stop.load(std::memory_order_relaxed)) {
        const auto pick_start = std::chrono::steady_clock::now();
        ThreadId tid = sfs::sched::kInvalidThread;
        const std::int64_t pick_wait =
            locked_section(cpu, [&] { tid = scheduler->PickNext(cpu); });
        if (tid == sfs::sched::kInvalidThread) {
          continue;  // never happens with 2 pinned tasks per shard, but don't trap on it
        }
        const auto picked = std::chrono::steady_clock::now();
        latency_hist.Record(
            cpu, std::chrono::duration_cast<std::chrono::nanoseconds>(picked - pick_start)
                     .count());
        const std::int64_t charge_wait =
            locked_section(cpu, [&] { scheduler->Charge(tid, kChargeTicks); });
        wait_hist.Record(cpu, pick_wait + charge_wait);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& d : dispatchers) {
    d.join();
  }

  ModeResult result;
  result.latency = latency_hist.Snapshot();
  result.wait = wait_hist.Snapshot();
  result.max_overlap = max_overlap.load();
  return result;
}

// --- wake-path section: the real runtime's wake path --------------------------
//
// Unlike the protocol harness above, this runs the actual runtime::Executor on
// a blocking workload: the dispatcher that charges a Block files the wake
// deadline in its own queue and applies the wakeup itself when its park or
// report wait reaches that deadline, with no kick.

struct WakeResult {
  HistogramSnapshot lock_wait;      // per-decision dispatch-lock wait, ns
  HistogramSnapshot wake_apply;     // wake deadline -> Wakeup applied, ns
  HistogramSnapshot wake_dispatch;  // wake deadline -> woken thread granted, ns
  std::int64_t wakeups = 0;
  std::int64_t kicks = 0;
  std::int64_t dispatches = 0;
};

WakeResult RunWakePath(int cpus) {
  using sfs::runtime::Executor;
  SchedConfig config;
  config.num_cpus = cpus;
  auto scheduler = CreateScheduler(SchedKind::kShardedSfs, config);

  Executor::Config exec_config;
  exec_config.quantum = sfs::Msec(1);
  Executor executor(*scheduler, exec_config);

  auto spin = [](sfs::Tick us) {
    const auto end = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < end) {
    }
  };
  // One spinner per CPU keeps every shard busy, two blockers per CPU generate
  // a steady wakeup stream through the home dispatchers' wake queues.
  for (ThreadId tid = 0; tid < cpus; ++tid) {
    executor.AddTask(tid, 1.0, [spin] {
      spin(20);
      return true;  // until the wall limit
    });
  }
  for (ThreadId tid = cpus; tid < 3 * cpus; ++tid) {
    executor.AddTask(tid, 2.0, [spin, tid]() -> Executor::WorkResult {
      spin(30);
      return Executor::WorkResult::Block(sfs::Usec(200) * (1 + tid % 3));
    });
  }
  executor.Run(sfs::Msec(300));

  WakeResult result;
  result.lock_wait = executor.lock_wait_latencies();
  result.wake_apply = executor.wake_apply_latencies();
  result.wake_dispatch = executor.wake_to_dispatch_latencies();
  result.wakeups = executor.wakeups();
  result.kicks = executor.kicks();
  result.dispatches = executor.dispatches();
  return result;
}

}  // namespace

SFS_EXPERIMENT(abl_lock_contention,
               .description =
                   "Ablation A11: dispatch latency, global-lock vs per-shard-lock "
                   "dispatchers as p grows (wall-clock)",
               .schedulers = {"sfs", "sharded-sfs"}, .repetitions = 1, .warmup = 0,
               .deterministic = false) {
  const ModeSpec modes[] = {
      {"sfs/global", SchedKind::kSfs, false},
      {"sharded/global", SchedKind::kShardedSfs, true},
      {"sharded/per-shard", SchedKind::kShardedSfs, false},
  };
  const int cpu_counts[] = {1, 2, 4, 8};

  sfs::common::Table table({"p", "dispatch lock", "median (us)", "p99 (us)",
                            "lock wait (us)", "overlap", "decisions"});
  for (const int cpus : cpu_counts) {
    for (const ModeSpec& mode : modes) {
      const ModeResult result = RunMode(mode, cpus);
      const double median_us = result.latency.Percentile(50) / 1000.0;
      const double p99_us = result.latency.Percentile(99) / 1000.0;
      const double mean_wait_us = result.wait.mean() / 1000.0;
      const auto decisions = static_cast<std::int64_t>(result.latency.count());
      table.AddRow({std::to_string(cpus), mode.label,
                    sfs::common::Table::Cell(median_us, 2),
                    sfs::common::Table::Cell(p99_us, 2),
                    sfs::common::Table::Cell(mean_wait_us, 3),
                    sfs::common::Table::Cell(static_cast<std::int64_t>(result.max_overlap)),
                    sfs::common::Table::Cell(decisions)});
      const std::string prefix =
          "p" + std::to_string(cpus) + "/" + std::string(mode.label) + "/";
      reporter.Timing(prefix + "median_us", median_us);
      reporter.Timing(prefix + "p99_us", p99_us);
      reporter.Timing(prefix + "mean_lock_wait_us", mean_wait_us);
      reporter.Timing(prefix + "max_overlap", static_cast<double>(result.max_overlap));
      reporter.Timing(prefix + "decisions", static_cast<double>(decisions));
      // Full percentile columns (p50/p99/p999, nanoseconds) from the same
      // sharded histograms the executor itself uses.
      reporter.TimingHistogram(prefix + "dispatch_ns", result.latency);
      reporter.TimingHistogram(prefix + "lock_wait_ns", result.wait);
    }
    reporter.Metric("tasks_at_p" + std::to_string(cpus),
                    static_cast<std::int64_t>(2 * cpus));
  }

  reporter.out() << "=== Ablation A11: scheduling-decision latency vs dispatch-lock "
                    "granularity ===\n\n";
  table.Print(reporter.out());
  reporter.out()
      << "\nEach decision = dispatch-lock acquisition + PickNext, sampled by p\n"
      << "dispatcher threads mirroring the executor's per-CPU loop back-to-back\n"
      << "(2 queued tasks per processor, 200 ms wall per cell).  'lock wait' is\n"
      << "the mean time a dispatcher spent blocked acquiring dispatch locks per\n"
      << "decision; 'overlap' is the most dispatchers ever observed inside\n"
      << "dispatch critical sections at once — >1 proves per-shard dispatch is\n"
      << "not serialized, while the global lock pins it at 1 and its lock wait\n"
      << "grows with p as every dispatcher convoys behind one holder.\n";

  // --- wake path: per-dispatcher wake timing, targeted parking ----------------
  sfs::common::Table wake_table({"p", "wakeups", "apply p99 (us)", "w2d p50 (us)",
                                 "w2d p99 (us)", "lock wait (us)", "kicks/wakeup"});
  for (const int cpus : {2, 8}) {
    const WakeResult result = RunWakePath(cpus);
    const double apply_p99_us = result.wake_apply.Percentile(99) / 1000.0;
    const double w2d_p50_us = result.wake_dispatch.Percentile(50) / 1000.0;
    const double w2d_p99_us = result.wake_dispatch.Percentile(99) / 1000.0;
    const double mean_wait_us = result.lock_wait.mean() / 1000.0;
    const double kicks_per_wakeup =
        result.wakeups > 0
            ? static_cast<double>(result.kicks) / static_cast<double>(result.wakeups)
            : 0.0;
    wake_table.AddRow({std::to_string(cpus), sfs::common::Table::Cell(result.wakeups),
                       sfs::common::Table::Cell(apply_p99_us, 2),
                       sfs::common::Table::Cell(w2d_p50_us, 2),
                       sfs::common::Table::Cell(w2d_p99_us, 2),
                       sfs::common::Table::Cell(mean_wait_us, 3),
                       sfs::common::Table::Cell(kicks_per_wakeup, 2)});
    const std::string prefix = "p" + std::to_string(cpus) + "/wake/targeted/";
    reporter.Timing(prefix + "wake_apply_p99_us", apply_p99_us);
    reporter.Timing(prefix + "wake_to_dispatch_p50_us", w2d_p50_us);
    reporter.Timing(prefix + "wake_to_dispatch_p99_us", w2d_p99_us);
    reporter.Timing(prefix + "mean_lock_wait_us", mean_wait_us);
    reporter.Timing(prefix + "kicks_per_wakeup", kicks_per_wakeup);
    // Real-thread counts vary from run to run, so they are timings too.
    reporter.Timing(prefix + "wakeups", static_cast<double>(result.wakeups));
    reporter.Timing(prefix + "dispatches", static_cast<double>(result.dispatches));
    reporter.TimingHistogram(prefix + "wake_to_dispatch_ns", result.wake_dispatch);
    reporter.TimingHistogram(prefix + "lock_wait_ns", result.lock_wait);
  }
  reporter.out() << "\n=== Wake path: per-dispatcher wake timing (real runtime::Executor) ===\n\n";
  wake_table.Print(reporter.out());
  reporter.out()
      << "\nBlocking workload: 1 spinner + 2 blockers per CPU, sharded SFS, 300 ms\n"
      << "wall.  'apply' = wake deadline to Wakeup applied; 'w2d' = wake deadline\n"
      << "to the woken thread granted a CPU; 'lock wait' = mean dispatch-lock wait\n"
      << "per decision; 'kicks/wakeup' = parking-slot kicks issued per wakeup (a\n"
      << "wakeup needs none; baton passes to parked peers make up the rest).\n";
}
