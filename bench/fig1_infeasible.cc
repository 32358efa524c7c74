// Figure 1 / Examples 1 & 2 (Section 1.2): the two motivating pathologies.
//
// Example 1 — infeasible weights: T1 (w=1) and T2 (w=10) on two CPUs with
// q=1ms; T3 (w=1) arrives at t=1s.  Under plain SFQ, T1 starves ~0.9s;
// readjustment or SFS eliminates the starvation.
//
// Example 2 — frequent arrivals/departures with feasible weights: a heavy
// thread, many light threads and a back-to-back chain of short jobs.  SFQ
// over-serves the short jobs; SFS keeps them at their requested share.

#include <string>

#include "src/common/table.h"
#include "src/eval/scenarios.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"

namespace {

using sfs::common::Table;
using sfs::harness::JsonValue;
using sfs::sched::SchedKind;

}  // namespace

SFS_EXPERIMENT(fig1_example1_infeasible,
               .description = "Example 1: infeasible weights starve T1 under plain SFQ",
               .schedulers = {"sfq", "wfq", "sfs"}) {
  reporter.out() << "=== Figure 1 / Example 1: the infeasible weights problem ===\n"
                 << "2 CPUs, q=1ms; T1(w=1), T2(w=10) from t=0; T3(w=1) arrives at t=1s.\n"
                 << "Paper: under SFQ, T1 starves ~900 quanta (0.9s) after T3 arrives.\n\n";

  Table table({"scheduler", "readjust", "T1 starvation (ms)", "T1 svc (ms)", "T2 svc (ms)",
               "T3 svc (ms)"});
  JsonValue cases = JsonValue::Array();
  struct Case {
    SchedKind kind;
    bool readjust;
  };
  for (const Case c : {Case{SchedKind::kSfq, false}, Case{SchedKind::kSfq, true},
                       Case{SchedKind::kWfq, false}, Case{SchedKind::kWfq, true},
                       Case{SchedKind::kSfs, true}}) {
    const auto result = sfs::eval::RunExample1(c.kind, c.readjust);
    table.AddRow({std::string(result.series.scheduler_name), c.readjust ? "yes" : "no",
                  Table::Cell(result.t1_starvation / sfs::kTicksPerMsec),
                  Table::Cell(result.series.Of("T1").back() / sfs::kTicksPerMsec),
                  Table::Cell(result.series.Of("T2").back() / sfs::kTicksPerMsec),
                  Table::Cell(result.series.Of("T3").back() / sfs::kTicksPerMsec)});
    JsonValue entry = JsonValue::Object();
    entry.Set("scheduler", JsonValue(result.series.scheduler_name));
    entry.Set("readjust", JsonValue(c.readjust));
    entry.Set("t1_starvation_ms", JsonValue(result.t1_starvation / sfs::kTicksPerMsec));
    entry.Set("t1_service_ms", JsonValue(result.series.Of("T1").back() / sfs::kTicksPerMsec));
    entry.Set("t2_service_ms", JsonValue(result.series.Of("T2").back() / sfs::kTicksPerMsec));
    entry.Set("t3_service_ms", JsonValue(result.series.Of("T3").back() / sfs::kTicksPerMsec));
    cases.Push(std::move(entry));
  }
  table.Print(reporter.out());
  reporter.Set("cases", std::move(cases));
}

SFS_EXPERIMENT(fig1_example2_short_jobs,
               .description = "Example 2: short-job chain over-served by SFQ, not by SFS",
               .schedulers = {"sfq", "sfs"}) {
  reporter.out() << "=== Example 2: short jobs with feasible weights ===\n"
                 << "2 CPUs; heavy(w=50), 100 x light(w=1), chained shorts (w=15, 300ms).\n"
                 << "Requested shorts:heavy ratio = 0.30.  Paper: SFQ gives each short job\n"
                 << "as much bandwidth as the heavy thread; SFS restores proportions.\n\n";

  Table table({"scheduler", "heavy svc (ms)", "shorts svc (ms)", "lights svc (ms)",
               "shorts/heavy"});
  JsonValue cases = JsonValue::Array();
  for (const SchedKind kind : {SchedKind::kSfq, SchedKind::kSfs}) {
    const auto result = sfs::eval::RunExample2(kind);
    table.AddRow({std::string(sfs::sched::SchedKindName(kind)),
                  Table::Cell(result.heavy_service / sfs::kTicksPerMsec),
                  Table::Cell(result.shorts_service / sfs::kTicksPerMsec),
                  Table::Cell(result.light_service / sfs::kTicksPerMsec),
                  Table::Cell(result.shorts_to_heavy_ratio, 3)});
    JsonValue entry = JsonValue::Object();
    entry.Set("scheduler", JsonValue(sfs::sched::SchedKindName(kind)));
    entry.Set("heavy_service_ms", JsonValue(result.heavy_service / sfs::kTicksPerMsec));
    entry.Set("shorts_service_ms", JsonValue(result.shorts_service / sfs::kTicksPerMsec));
    entry.Set("lights_service_ms", JsonValue(result.light_service / sfs::kTicksPerMsec));
    entry.Set("shorts_to_heavy_ratio", JsonValue(result.shorts_to_heavy_ratio));
    cases.Push(std::move(entry));
  }
  table.Print(reporter.out());
  reporter.Set("requested_ratio", JsonValue(0.30));
  reporter.Set("cases", std::move(cases));
}
