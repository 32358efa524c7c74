// Ablation A3: cost of the weight readjustment algorithm (Section 2.1).
//
// The paper claims O(p) cost independent of the number of runnable threads t,
// because at most p-1 threads can violate the feasibility constraint and the
// weight-sorted queue lets the scan stop at the first feasible prefix.  Sweep t
// with p fixed (flat) and p with t fixed (linear).  Wall-clock; JSON output
// only under --timing.

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/harness/registry.h"
#include "src/harness/runner.h"
#include "src/sched/readjust.h"

namespace {

using sfs::harness::DoNotOptimize;
using sfs::sched::Entity;
using sfs::sched::ReadjustQueue;
using sfs::sched::ThreadId;
using sfs::sched::WeightQueue;

struct Fixture {
  explicit Fixture(int threads, int heavy) {
    entities.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      auto e = std::make_unique<Entity>();
      e->tid = static_cast<ThreadId>(i);
      // `heavy` infeasible candidates at the front of the queue.
      e->weight() = i < heavy ? 100000.0 + i : 1.0 + (i % 5);
      e->phi() = e->weight();
      total += e->weight();
      queue.Append(e.get());
      entities.push_back(std::move(e));
    }
  }
  ~Fixture() { queue.Clear(); }

  std::vector<std::unique_ptr<Entity>> entities;
  WeightQueue queue;
  sfs::sched::ReadjustState state;
  double total = 0.0;
};

}  // namespace

SFS_EXPERIMENT(abl_readjust_cost,
               .description = "Ablation A3: readjustment cost is O(p), flat in t",
               .schedulers = {"sfs"},
               .repetitions = 1, .warmup = 1, .deterministic = false) {
  using sfs::common::Table;

  reporter.out() << "=== Ablation A3: weight readjustment cost ===\n"
                 << "One call = ReadjustQueue over the weight-sorted queue; ns per call.\n\n";

  const int thread_counts[] = {16, 64, 256, 1024, 4096};
  const int cpu_counts[] = {2, 4, 8, 16, 32, 64};

  // Sweep t (runnable threads) with p=4: cost should stay flat.
  Table vs_threads({"threads (p=4)", "ns/readjust"});
  for (const int threads : thread_counts) {
    Fixture fx(threads, /*heavy=*/2);
    const double ns = sfs::harness::MeasureNsPerOp(
        [&] { DoNotOptimize(ReadjustQueue(fx.queue, fx.total, 4, fx.state)); });
    vs_threads.AddRow({Table::Cell(static_cast<std::int64_t>(threads)), Table::Cell(ns, 1)});
    reporter.Timing("vs_threads/" + std::to_string(threads), ns);
  }
  vs_threads.Print(reporter.out());

  // Sweep p (processors) with t=1024: cost grows with the number of caps.
  Table vs_cpus({"cpus (t=1024)", "ns/readjust"});
  for (const int cpus : cpu_counts) {
    Fixture fx(1024, /*heavy=*/cpus - 1);
    const double ns = sfs::harness::MeasureNsPerOp(
        [&] { DoNotOptimize(ReadjustQueue(fx.queue, fx.total, cpus, fx.state)); });
    vs_cpus.AddRow({Table::Cell(static_cast<std::int64_t>(cpus)), Table::Cell(ns, 1)});
    reporter.Timing("vs_cpus/" + std::to_string(cpus), ns);
  }
  vs_cpus.Print(reporter.out());

  reporter.out() << "\nExpected: flat in t (left table), linear in p (right table) — the\n"
                 << "paper's O(p) claim for the readjustment scan.\n";
  reporter.Metric("thread_counts_measured",
                  static_cast<std::int64_t>(std::size(thread_counts)));
  reporter.Metric("cpu_counts_measured", static_cast<std::int64_t>(std::size(cpu_counts)));
}
