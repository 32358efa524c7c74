// Ablation A10: sharded scheduling — global SFS vs the partitioned strawman
// vs per-CPU SFS shards with surplus-aware stealing (Section 1.2).
//
// The paper rejects per-processor GPS scheduling because blocked/terminated
// threads imbalance the partitions and repartitioning is either expensive or
// late.  This sweep recreates that pathology (eval::RunShardedFairness: hogs
// plus blocking sleepers, mid-run terminators and a kill batch) across
// p ∈ {2..64} processors and up to 10,000 threads, comparing:
//   * global-sfs      — one shared queue set (the paper's design);
//   * partitioned-sfq — per-CPU SFQ, no stealing, no coupling, no rebalance
//                       (the strawman at its "infrequent repartitioning" end);
//   * sharded-sfs     — per-CPU SFS with max-surplus idle stealing, periodic
//                       surplus-aware rebalancing and full virtual-time
//                       coupling (the production design).
// Each cell runs twice with the same seed and CHECK-fails unless the schedule
// fingerprints are identical (the layer is deterministic); decisions/sec is
// wall clock and reaches the JSON only under --timing.

#include <memory>
#include <string>
#include <string_view>

#include "src/common/assert.h"
#include "src/common/fingerprint.h"
#include "src/common/table.h"
#include "src/eval/scenarios.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"
#include "src/obs/metrics.h"
#include "src/obs/perfetto.h"
#include "src/obs/trace.h"
#include "src/sched/factory.h"

namespace {

using sfs::Tick;
using sfs::eval::RunShardedFairness;
using sfs::eval::ShardedFairnessResult;
using sfs::sched::SchedConfig;

struct Contender {
  const char* label;
  const char* policy;
  sfs::sched::ShardStealPolicy steal;
  int rebalance_period;
  double coupling;
};

constexpr Contender kContenders[] = {
    {"global-sfs", "sfs", sfs::sched::ShardStealPolicy::kNone, 0, 0.0},
    {"partitioned-sfq", "sharded-sfq", sfs::sched::ShardStealPolicy::kNone, 0, 0.0},
    {"sharded-sfs", "sharded-sfs", sfs::sched::ShardStealPolicy::kMaxSurplus, 256, 1.0},
};

}  // namespace

SFS_EXPERIMENT(abl_sharded,
               .description =
                   "Ablation A10: global SFS vs partitioned SFQ vs sharded SFS with stealing",
               .schedulers = {"sfs", "sharded-sfq", "sharded-sfs"}) {
  using sfs::common::Table;
  using sfs::harness::JsonValue;

  reporter.out() << "=== Ablation A10: sharded scheduling under churn (Section 1.2) ===\n"
                 << "Hogs + sleepers + terminators + a kill batch; GMS deviation of the\n"
                 << "surviving hogs.  Stealing/rebalancing/coupling repair the imbalance the\n"
                 << "partitioned strawman suffers; every cell is run twice and must produce\n"
                 << "identical schedule fingerprints.\n\n";

  struct Cell {
    int cpus;
    int threads;
    Tick horizon;
  };
  // Low-occupancy cells (threads ~ p) drain shards whenever a terminator
  // exits or a sleeper blocks — the idle-pull steal regime; high-occupancy
  // cells exercise placement/rebalancing and per-decision cost at scale.
  const Cell cells[] = {
      {2, 16, sfs::Sec(30)},
      {4, 6, sfs::Sec(30)},
      {8, 1024, sfs::Sec(30)},
      {16, 24, sfs::Sec(30)},
      {64, 10000, sfs::Sec(20)},
  };

  Table table({"p", "threads", "scheduler", "GMS dev (ms)", "steals", "rebalances",
               "migrations", "decisions", "ns/decision"});
  JsonValue rows = JsonValue::Array();
  bool all_deterministic = true;
  for (const Cell& cell : cells) {
    for (const Contender& contender : kContenders) {
      SchedConfig config;
      config.num_cpus = cell.cpus;
      config.shard_steal = contender.steal;
      config.shard_rebalance_period = contender.rebalance_period;
      config.shard_coupling = contender.coupling;

      const ShardedFairnessResult run = RunShardedFairness(
          contender.policy, config, cell.threads, cell.horizon, reporter.seed());
      // The rerun carries the observability sinks (skipped for the 64-CPU
      // cell, where the rings alone would dwarf the scheduler state), so the
      // determinism CHECK below doubles as the tracing-invariance proof:
      // recording must not change a single scheduling decision.
      std::unique_ptr<sfs::obs::Trace> trace;
      std::unique_ptr<sfs::obs::MetricsRegistry> metrics;
      sfs::eval::ObsSinks sinks;
      if (cell.cpus <= 16) {
        trace = std::make_unique<sfs::obs::Trace>(cell.cpus, /*capacity_per_ring=*/1 << 14);
        metrics = std::make_unique<sfs::obs::MetricsRegistry>(/*num_shards=*/1);
        sinks = {.trace = trace.get(), .metrics = metrics.get()};
      }
      const ShardedFairnessResult rerun = RunShardedFairness(
          contender.policy, config, cell.threads, cell.horizon, reporter.seed(), sinks);
      const bool deterministic =
          run.schedule_fingerprint == rerun.schedule_fingerprint &&
          run.decisions == rerun.decisions && run.steals == rerun.steals &&
          run.shard_migrations == rerun.shard_migrations &&
          run.gms_deviation_ms == rerun.gms_deviation_ms;
      all_deterministic = all_deterministic && deterministic;
      SFS_CHECK(deterministic);

      // --trace export: the low-occupancy sharded-SFS cell, where steals and
      // rebalances are visible at a glance.  Repetition 0 only, so --repeat
      // does not rewrite the file with identical contents.
      if (trace != nullptr && !reporter.trace_path().empty() && reporter.repetition() == 0 &&
          std::string_view(contender.label) == "sharded-sfs" && cell.cpus == 4) {
        if (sfs::obs::PerfettoExporter::WriteFile(*trace, reporter.trace_path())) {
          reporter.out() << "(wrote Perfetto trace of sharded-sfs p=4 to "
                         << reporter.trace_path() << " — open in ui.perfetto.dev)\n";
        } else {
          reporter.out() << "(FAILED to write trace to " << reporter.trace_path() << ")\n";
        }
      }

      table.AddRow({Table::Cell(std::int64_t{cell.cpus}), Table::Cell(std::int64_t{cell.threads}),
                    contender.label, Table::Cell(run.gms_deviation_ms, 1),
                    Table::Cell(run.steals), Table::Cell(run.shard_migrations),
                    Table::Cell(run.engine_migrations), Table::Cell(run.decisions),
                    Table::Cell(run.wall_ns_per_decision, 0)});

      JsonValue entry = JsonValue::Object();
      entry.Set("cpus", JsonValue(std::int64_t{cell.cpus}));
      entry.Set("threads", JsonValue(std::int64_t{cell.threads}));
      entry.Set("scheduler", JsonValue(contender.label));
      entry.Set("gms_deviation_ms", JsonValue(run.gms_deviation_ms));
      entry.Set("steals", JsonValue(run.steals));
      entry.Set("rebalance_migrations", JsonValue(run.shard_migrations));
      entry.Set("engine_migrations", JsonValue(run.engine_migrations));
      entry.Set("decisions", JsonValue(run.decisions));
      entry.Set("schedule_fingerprint", JsonValue(sfs::common::FingerprintHex(run.schedule_fingerprint)));
      entry.Set("deterministic", JsonValue(std::int64_t{deterministic ? 1 : 0}));
      rows.Push(std::move(entry));

      reporter.Timing(std::string(contender.label) + "/p" + std::to_string(cell.cpus) + "_t" +
                          std::to_string(cell.threads),
                      run.wall_ns_per_decision);

      if (metrics != nullptr) {
        const std::string hist_prefix = "hist/" + std::string(contender.label) + "/p" +
                                        std::to_string(cell.cpus) + "_t" +
                                        std::to_string(cell.threads) + "/";
        reporter.Histogram(hist_prefix + "quantum_ticks",
                           metrics->GetHistogram("sim/quantum_ticks").Snapshot());
        reporter.Histogram(hist_prefix + "run_interval_ticks",
                           metrics->GetHistogram("sim/run_interval_ticks").Snapshot());
      }
    }
  }
  table.Print(reporter.out());
  reporter.out() << "\nExpected: the partitioned strawman's deviation explodes after the kill\n"
                 << "batch drains its shards; sharded-SFS repairs it with steals/rebalances\n"
                 << "and approaches global SFS, while its per-decision cost stays shard-local\n"
                 << "(no global queue contention as p grows).\n";
  reporter.Set("rows", std::move(rows));
  reporter.Metric("all_deterministic", all_deterministic ? std::int64_t{1} : std::int64_t{0});
}
