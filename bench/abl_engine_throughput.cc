// Ablation A12: engine event-loop throughput on the timing wheel.
//
// Sweeps t mostly-blocked Interact sleepers (t in {100, 1k, 10k}) across
// p in {2, 16, 64} processors under SFS.  Every blocked thread holds one
// pending wakeup, so the event queue scales with t while the run queues stay
// small.  Per (t, p) cell the experiment records the event count, dispatch
// decisions and two FNV-1a trace fingerprints — all pure functions of --seed
// — plus events/sec and ns/event (wall clock; JSON only under --timing).
//
// This experiment is the repo's recorded engine-performance baseline:
// BENCH_engine.json at the repo root is its `--timing --repeat 5` output.
//
// SFS_ENGINE_THROUGHPUT_MAX_THREADS caps the thread axis (CI smoke runs a
// reduced matrix); unset runs the full sweep.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/assert.h"
#include "src/common/fingerprint.h"
#include "src/common/table.h"
#include "src/eval/scenarios.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"
#include "src/obs/metrics.h"

namespace {

int MaxThreads() {
  if (const char* env = std::getenv("SFS_ENGINE_THROUGHPUT_MAX_THREADS"); env != nullptr) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<int>(parsed);
    }
  }
  return 10000;
}

}  // namespace

SFS_EXPERIMENT(abl_engine_throughput,
               .description = "Ablation A12: engine event throughput on the timing wheel",
               .schedulers = {"sfs"},
               .repetitions = 1,
               .warmup = 0) {
  using sfs::common::Table;
  using sfs::harness::JsonValue;

  reporter.out() << "=== Ablation A12: engine event-loop throughput ===\n"
                 << "SFS, t mostly-blocked sleepers + 2 hogs, 30s horizon, timing-wheel event\n"
                 << "queue; the fingerprints are pure functions of the seed.\n\n";

  const int max_threads = MaxThreads();
  const int thread_sizes[] = {100, 1000, 10000};
  const int cpu_sizes[] = {2, 16, 64};
  const sfs::Tick horizon = sfs::Sec(30);

  Table table({"threads", "cpus", "events", "decisions", "preemptions", "wheel (ns/ev)"});
  JsonValue rows = JsonValue::Array();
  for (const int threads : thread_sizes) {
    if (threads > max_threads) {
      reporter.out() << "(threads=" << threads
                     << " skipped: SFS_ENGINE_THROUGHPUT_MAX_THREADS=" << max_threads << ")\n";
      continue;
    }
    for (const int cpus : cpu_sizes) {
      // The engine's sim-time histograms are pure functions of --seed, so
      // they live in the deterministic section of the JSON.
      sfs::obs::MetricsRegistry metrics(/*num_shards=*/1);
      const auto wheel = sfs::eval::RunEngineThroughput(threads, cpus, horizon, reporter.seed(),
                                                        {.metrics = &metrics});
      const double wheel_ns =
          wheel.events > 0 ? wheel.wall_ns / static_cast<double>(wheel.events) : 0.0;
      table.AddRow({Table::Cell(std::int64_t{threads}), Table::Cell(std::int64_t{cpus}),
                    Table::Cell(wheel.events), Table::Cell(wheel.decisions),
                    Table::Cell(wheel.preemptions), Table::Cell(wheel_ns, 0)});

      JsonValue entry = JsonValue::Object();
      entry.Set("threads", JsonValue(std::int64_t{threads}));
      entry.Set("cpus", JsonValue(std::int64_t{cpus}));
      entry.Set("event_queue", JsonValue("timing_wheel"));
      entry.Set("events", JsonValue(wheel.events));
      entry.Set("decisions", JsonValue(wheel.decisions));
      entry.Set("preemptions", JsonValue(wheel.preemptions));
      entry.Set("schedule_fingerprint",
                JsonValue(sfs::common::FingerprintHex(wheel.schedule_fingerprint)));
      entry.Set("lifecycle_fingerprint",
                JsonValue(sfs::common::FingerprintHex(wheel.lifecycle_fingerprint)));
      rows.Push(std::move(entry));
      const std::string suffix = "/t" + std::to_string(threads) + "_p" + std::to_string(cpus);
      reporter.Throughput("timing_wheel" + suffix, wheel.events, wheel.wall_ns);
      const std::string hist_prefix = "hist" + suffix + "/";
      reporter.Histogram(hist_prefix + "quantum_ticks",
                         metrics.GetHistogram("sim/quantum_ticks").Snapshot());
      reporter.Histogram(hist_prefix + "run_interval_ticks",
                         metrics.GetHistogram("sim/run_interval_ticks").Snapshot());
    }
  }
  table.Print(reporter.out());
  reporter.out() << "\nExpected: ns/event roughly flat in t (the wheel is O(1) per event);\n"
                 << "BENCH_engine.json holds the recorded baseline these cells are gated on.\n";
  reporter.Set("rows", std::move(rows));
}

// Ablation A13 (DESIGN.md §10): the same sweep under sim::ParallelEngine over
// a *partitioned* sharded-SFS (stealing/rebalancing/coupling off, tasks
// home-hinted tid % p), where the parallel engine is exact: each cell runs
// the serial sim::Engine oracle and the parallel engine with W = min(4, p)
// workers over the identical workload and CHECK-asserts byte-identical
// per-group fingerprints.  Four cells extend the axes: t=1k x p=1024 and
// t=100k x p=64 and p=1024 (oracle + parallel; the p=64/p=1024 pair at equal
// t and horizon shows whether per-event cost depends on p), and t=1M x
// p=1024 (parallel-only, shorter horizon).  All are gated behind the same
// SFS_ENGINE_THROUGHPUT_MAX_THREADS cap as A12's thread axis; the t=1k x
// p=1024 cell fits CI's cap, so CI exercises 1024 shards on every push.  Wall-clock speedup depends on host cores; per-group
// determinism does not, so the JSON document is rerun-comparable anywhere.
SFS_EXPERIMENT(abl_parallel_engine,
               .description =
                   "Ablation A13: parallel sharded engine vs serial oracle, per-group exact",
               .schedulers = {"sharded-sfs"},
               .repetitions = 1,
               .warmup = 0) {
  using sfs::common::Table;
  using sfs::harness::JsonValue;

  const int max_threads = MaxThreads();
  const int thread_sizes[] = {100, 1000, 10000};
  const int cpu_sizes[] = {2, 16, 64};
  const sfs::Tick horizon = sfs::Sec(30);

  reporter.out() << "=== Ablation A13: parallel engine, partitioned sharded-SFS, W = min(4, p) ===\n"
                 << "Per-group schedule/lifecycle fingerprints must match the serial oracle\n"
                 << "byte-for-byte; 'mailed' counts cross-worker mailbox wakeups (0 when\n"
                 << "partitioned).  Speedup is wall-clock and host-core dependent.\n\n";

  struct ParCell {
    int threads;
    int cpus;
    sfs::Tick horizon;
    bool oracle;  // run the serial oracle and assert per-group identity
  };
  std::vector<ParCell> par_cells;
  for (const int threads : thread_sizes) {
    for (const int cpus : cpu_sizes) {
      par_cells.push_back({threads, cpus, horizon, true});
    }
  }
  par_cells.push_back({1000, 1024, horizon, true});
  par_cells.push_back({100000, 64, sfs::Sec(10), true});
  par_cells.push_back({100000, 1024, sfs::Sec(10), true});
  par_cells.push_back({1000000, 1024, sfs::Sec(5), false});

  Table par_table({"threads", "cpus", "W", "events", "epochs", "mailed", "identical",
                   "serial (ns/ev)", "parallel (ns/ev)", "speedup"});
  JsonValue par_rows = JsonValue::Array();
  bool all_groups_identical = true;
  for (const ParCell& cell : par_cells) {
    if (cell.threads > max_threads) {
      reporter.out() << "(parallel t=" << cell.threads
                     << " skipped: SFS_ENGINE_THROUGHPUT_MAX_THREADS=" << max_threads << ")\n";
      continue;
    }
    const int workers = std::min(4, cell.cpus);
    const auto par = sfs::eval::RunParallelEngineThroughput(
        workers, workers, cell.threads, cell.cpus, cell.horizon, reporter.seed());

    const std::string suffix =
        "/t" + std::to_string(cell.threads) + "_p" + std::to_string(cell.cpus);
    auto add_row = [&](const char* engine_name, const sfs::eval::ParallelEngineThroughputResult& r) {
      JsonValue entry = JsonValue::Object();
      entry.Set("threads", JsonValue(std::int64_t{cell.threads}));
      entry.Set("cpus", JsonValue(std::int64_t{cell.cpus}));
      entry.Set("workers", JsonValue(std::int64_t{workers}));
      entry.Set("engine", JsonValue(engine_name));
      entry.Set("events", JsonValue(r.events));
      entry.Set("decisions", JsonValue(r.decisions));
      entry.Set("preemptions", JsonValue(r.preemptions));
      entry.Set("mailed_wakeups", JsonValue(r.mailed_wakeups));
      entry.Set("epochs", JsonValue(r.epochs));
      // One combined fingerprint per stream: groups mixed in group order, so
      // rerun comparisons need a single stable hex string per cell.
      sfs::common::Fnv1a sched_fp;
      for (const auto fp : r.group_schedule_fingerprints) {
        sched_fp.Mix(fp);
      }
      sfs::common::Fnv1a life_fp;
      for (const auto fp : r.group_lifecycle_fingerprints) {
        life_fp.Mix(fp);
      }
      entry.Set("schedule_fingerprint", JsonValue(sfs::common::FingerprintHex(sched_fp.value())));
      entry.Set("lifecycle_fingerprint", JsonValue(sfs::common::FingerprintHex(life_fp.value())));
      par_rows.Push(std::move(entry));
      reporter.Throughput(std::string(engine_name) + suffix, r.events, r.wall_ns);
    };

    bool identical = true;
    double serial_ns = 0.0;
    if (cell.oracle) {
      const auto oracle = sfs::eval::RunParallelEngineThroughput(
          /*workers=*/0, workers, cell.threads, cell.cpus, cell.horizon, reporter.seed());
      identical = oracle.group_schedule_fingerprints == par.group_schedule_fingerprints &&
                  oracle.group_lifecycle_fingerprints == par.group_lifecycle_fingerprints &&
                  oracle.events == par.events && oracle.decisions == par.decisions &&
                  oracle.preemptions == par.preemptions;
      all_groups_identical = all_groups_identical && identical;
      serial_ns =
          oracle.events > 0 ? oracle.wall_ns / static_cast<double>(oracle.events) : 0.0;
      add_row("serial_sharded", oracle);
    }
    const double par_ns =
        par.events > 0 ? par.wall_ns / static_cast<double>(par.events) : 0.0;
    add_row(("parallel_w" + std::to_string(workers)).c_str(), par);

    par_table.AddRow({Table::Cell(std::int64_t{cell.threads}), Table::Cell(std::int64_t{cell.cpus}),
                      Table::Cell(std::int64_t{workers}), Table::Cell(par.events),
                      Table::Cell(par.epochs), Table::Cell(par.mailed_wakeups),
                      cell.oracle ? (identical ? "yes" : "NO") : "n/a",
                      Table::Cell(serial_ns, 0), Table::Cell(par_ns, 0),
                      Table::Cell(par_ns > 0.0 && serial_ns > 0.0 ? serial_ns / par_ns : 0.0, 2)});

    // The exactness contract: partitioned parallel runs reproduce the serial
    // oracle's per-group schedules byte-for-byte, at any worker count.
    SFS_CHECK(identical);
  }
  par_table.Print(reporter.out());
  reporter.out() << "\nExpected: 'identical' in every oracle cell regardless of host cores.\n"
                 << "Speedup > 1 requires real cores for the workers (single-core hosts pay\n"
                 << "the epoch-barrier and locking overhead with no parallelism to show for\n"
                 << "it; that overhead is the honest cost of the machinery and shrinks as t\n"
                 << "grows and barrier crossings amortize over more per-epoch events).\n";
  reporter.Set("parallel_rows", std::move(par_rows));
  reporter.Metric("parallel_groups_identical",
                  all_groups_identical ? std::int64_t{1} : std::int64_t{0});
}
