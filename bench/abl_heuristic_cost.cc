// Ablation A2: cost/accuracy trade-off of the Section 3.2 scheduling heuristic.
//
// Complements Figure 3 (accuracy) with the other half of the trade: decision
// latency.  The paper bounds each decision to k examinations per queue because
// its exact decision re-sorted every surplus.  Here the exact decision
// (sched::Sfs) reads one head per phi class and is the cheapest row at every
// thread count.  The heuristic model (eval::HeuristicSfs) keeps a surplus
// order of every runnable thread, re-filed on each charge and re-sorted at
// each refresh, so its cost grows with the thread count as well as with k.
// Wall-clock; JSON output only under --timing.

#include <iterator>
#include <memory>
#include <string>

#include "src/common/table.h"
#include "src/eval/heuristic_sfs.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"
#include "src/sched/sfs.h"

namespace {

using sfs::harness::DoNotOptimize;
using sfs::sched::SchedConfig;
using sfs::sched::Sfs;
using sfs::sched::ThreadId;

// k = 0 times the exact algorithm.
double DecisionNsPerOp(int k, int threads) {
  SchedConfig config;
  config.num_cpus = 4;
  const std::unique_ptr<Sfs> scheduler =
      k == 0 ? std::make_unique<Sfs>(config) : std::make_unique<sfs::eval::HeuristicSfs>(config, k);
  for (ThreadId tid = 0; tid < threads; ++tid) {
    scheduler->AddThread(tid, 1.0 + (tid % 9));
  }
  ThreadId current = scheduler->PickNext(0);
  return sfs::harness::MeasureNsPerOp([&] {
    scheduler->Charge(current, sfs::Msec(1 + (current % 200)));
    current = scheduler->PickNext(0);
    DoNotOptimize(current);
  });
}

}  // namespace

SFS_EXPERIMENT(abl_heuristic_cost,
               .description = "Ablation A2: decision latency of the k-bounded heuristic",
               .schedulers = {"sfs"},
               .repetitions = 1, .warmup = 1, .deterministic = false) {
  using sfs::common::Table;

  reporter.out() << "=== Ablation A2: SFS decision cost, exact vs k-bounded heuristic ===\n"
                 << "4 CPUs; one decision = Charge + PickNext; ns per decision.\n\n";

  const int ks[] = {0, 5, 20, 60};  // 0 = exact algorithm
  const int thread_counts[] = {50, 100, 200, 400, 800};

  Table table({"k", "threads", "ns/decision"});
  for (const int k : ks) {
    for (const int threads : thread_counts) {
      const double ns = DecisionNsPerOp(k, threads);
      const std::string label = k == 0 ? "exact" : "k" + std::to_string(k);
      table.AddRow({label, Table::Cell(static_cast<std::int64_t>(threads)),
                    Table::Cell(ns, 1)});
      reporter.Timing(label + "/" + std::to_string(threads) + "_threads", ns);
    }
  }
  table.Print(reporter.out());
  reporter.out() << "\nExpected: exact SFS is the cheapest row at every thread count.  The\n"
                 << "bounded-k heuristic costs more, and its cost grows with the thread\n"
                 << "count: its surplus order holds every runnable thread.\n";
  reporter.Metric("k_values_measured", static_cast<std::int64_t>(std::size(ks)));
  reporter.Metric("thread_counts_measured",
                  static_cast<std::int64_t>(std::size(thread_counts)));
}
