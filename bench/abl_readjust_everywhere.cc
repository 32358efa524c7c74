// Ablation A4: grafting the readjustment algorithm onto other GPS schedulers.
//
// Section 2.1: "Our weight readjustment algorithm can be employed with most
// existing GPS-based scheduling algorithms to deal with the problem of
// infeasible weights."  This harness runs the Example 1 starvation scenario and
// a GMS-deviation audit for SFQ and WFQ with readjustment off/on.

#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/eval/scenarios.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"

SFS_EXPERIMENT(abl_readjust_everywhere,
               .description = "Ablation A4: readjustment grafted onto SFQ/WFQ",
               .schedulers = {"sfq", "wfq", "sfs"}) {
  using sfs::common::Table;
  using sfs::harness::JsonValue;
  using sfs::sched::SchedKind;

  reporter.out() << "=== Ablation A4: weight readjustment grafted onto GPS baselines ===\n"
                 << "Scenario: Example 1 (T1 starvation, ms) and deviation from the GMS fluid\n"
                 << "reference for the same late-arrival workload (w=1 and w=50 from t=0,\n"
                 << "w=1 arriving at t=15s; 2 CPUs, 60s horizon).\n\n";

  Table table({"scheduler", "readjust", "T1 starvation (ms)", "GMS deviation (ms)"});
  JsonValue rows = JsonValue::Array();
  const std::vector<sfs::eval::TimedArrival> arrivals = {
      {0, 1.0}, {0, 50.0}, {sfs::Sec(15), 1.0}};
  struct Row {
    SchedKind kind;
    bool readjust;
  };
  for (const Row row : {Row{SchedKind::kSfq, false}, Row{SchedKind::kSfq, true},
                        Row{SchedKind::kWfq, false}, Row{SchedKind::kWfq, true},
                        Row{SchedKind::kSfs, true}}) {
    const auto ex1 = sfs::eval::RunExample1(row.kind, row.readjust);
    const double deviation_ms =
        sfs::eval::GmsDeviationForArrivals(row.kind, arrivals, 2, sfs::Sec(60),
                                           sfs::kDefaultQuantum, -1, row.readjust) /
        1000.0;
    table.AddRow({std::string(ex1.series.scheduler_name), row.readjust ? "yes" : "no",
                  Table::Cell(ex1.t1_starvation / sfs::kTicksPerMsec),
                  Table::Cell(deviation_ms, 1)});
    JsonValue entry = JsonValue::Object();
    entry.Set("scheduler", JsonValue(ex1.series.scheduler_name));
    entry.Set("readjust", JsonValue(row.readjust));
    entry.Set("t1_starvation_ms", JsonValue(ex1.t1_starvation / sfs::kTicksPerMsec));
    entry.Set("gms_deviation_ms", JsonValue(deviation_ms));
    rows.Push(std::move(entry));
  }
  table.Print(reporter.out());
  reporter.out() << "\nExpected: without readjustment every GPS baseline starves T1 for "
                    "~900ms\nand diverges from GMS by seconds; with readjustment both collapse "
                    "to a\nfew quanta.  SFS (always readjusted) matches the repaired "
                    "baselines.\n";
  reporter.Set("rows", std::move(rows));
}
