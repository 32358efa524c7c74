// Ablation A9: exact SFS decision cost against the runnable count t
// (Section 3.2).
//
// Sweeps 10 to 10,000 runnable threads through full SFS (engine-driven, exact
// algorithm) and records, per size:
//   * a fingerprint of the complete dispatch trace, decisions, deviation from
//     the GMS fluid allocation, the refresh counters and the run heads a
//     charge steps over to re-file its thread — all pure functions of --seed;
//   * wall-clock nanoseconds per decision (JSON only under --timing).

#include <algorithm>
#include <string>

#include "src/common/fingerprint.h"
#include "src/common/table.h"
#include "src/eval/scenarios.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"

SFS_EXPERIMENT(abl_decision_scaling,
               .description = "Ablation A9: exact SFS decision cost, 10 to 10,000 threads",
               .schedulers = {"sfs"}) {
  using sfs::common::Table;
  using sfs::harness::JsonValue;

  reporter.out() << "=== Ablation A9: exact SFS decision scaling ===\n"
                 << "SFS, 2 CPUs, q=200ms, random weights 1..20.\n\n";

  const int sizes[] = {10, 100, 1000, 10000};

  Table table({"threads", "decisions", "GMS dev (ms)", "repositions", "filing probes/charge",
               "ns/decision"});
  JsonValue rows = JsonValue::Array();
  for (const int threads : sizes) {
    // Scale the horizon so every thread runs and the virtual time advances:
    // otherwise, with fewer decisions than threads, the minimum start tag
    // stays put and the refresh counters never move at the largest sizes.
    const sfs::Tick horizon =
        std::max(sfs::Sec(300), sfs::Tick{threads} * sfs::kDefaultQuantum * 5 / (4 * 2));
    const auto run = sfs::eval::RunScaling(threads, /*cpus=*/2, horizon, reporter.seed());
    const double probes_per_charge =
        run.charges > 0 ? static_cast<double>(run.filing_probes) / static_cast<double>(run.charges)
                        : 0.0;

    table.AddRow({Table::Cell(std::int64_t{threads}), Table::Cell(run.decisions),
                  Table::Cell(run.gms_deviation_ms, 1), Table::Cell(run.refresh_repositions),
                  Table::Cell(probes_per_charge, 3), Table::Cell(run.wall_ns_per_decision, 0)});

    JsonValue entry = JsonValue::Object();
    entry.Set("threads", JsonValue(std::int64_t{threads}));
    entry.Set("decisions", JsonValue(run.decisions));
    entry.Set("schedule_fingerprint", JsonValue(sfs::common::FingerprintHex(run.schedule_fingerprint)));
    entry.Set("gms_deviation_ms", JsonValue(run.gms_deviation_ms));
    entry.Set("full_refreshes", JsonValue(run.full_refreshes));
    entry.Set("refresh_repositions", JsonValue(run.refresh_repositions));
    entry.Set("charges", JsonValue(run.charges));
    entry.Set("filing_probes", JsonValue(run.filing_probes));
    entry.Set("filing_probes_per_charge", JsonValue(probes_per_charge));
    rows.Push(std::move(entry));
    reporter.Timing("ns_per_decision/" + std::to_string(threads), run.wall_ns_per_decision);
  }
  table.Print(reporter.out());
  reporter.out() << "\nExpected: ns/decision nearly flat in t.  Threads of one weight share\n"
                 << "a start tag here (all arrive at t=0 and run in lockstep).  A decision\n"
                 << "reads one head-table entry per phi class; each entry's first idle\n"
                 << "thread is kept as threads are filed, charged and dispatched, and a\n"
                 << "class is rescanned only when that thread leaves it.  A charge takes\n"
                 << "its thread out of its class and files it back by two searches over\n"
                 << "the class's run tags, each probing both ends first, so filing\n"
                 << "probes/charge stays O(log(runs per class)), not O(t); a thread that\n"
                 << "does not head its run leaves with no search.  An admission finds its\n"
                 << "place through one index entry per distinct weight.  What growth\n"
                 << "remains is cache misses on a larger working set.\n";
  reporter.Set("rows", std::move(rows));
}
