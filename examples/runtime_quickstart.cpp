// sfs::runtime quickstart: the library in ~50 lines of user code.
//
// Links ONLY the standalone sfs::runtime target (+ the scheduler stack it
// re-exports).  Runs a blocking workload on sharded SFS through the runtime's
// wake path: each CPU's dispatcher parks on its own futex-style slot, times
// the wakeups of the threads it blocked (its park or report wait ends at the
// next wake deadline), and applies the due wakeups and picks under one
// dispatch-lock hold.
//
//   $ ./examples/runtime_quickstart
//
// Exits non-zero if the proportional split or the wake plumbing is broken,
// so CI can use it as a smoke test.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "src/runtime/executor.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

int main() {
  using namespace sfs;

  // 1. A scheduler: per-CPU SFS shards with surplus-aware stealing.
  sched::SchedConfig sched_config;
  sched_config.num_cpus = 2;
  sched::Sharded<sched::Sfs> scheduler(sched_config);

  // 2. The runtime: one dispatcher thread per CPU, each timing its own wakeups,
  //    batched decisions.
  runtime::Executor::Config config;
  config.quantum = Msec(5);
  runtime::Executor executor(scheduler, config);

  // 3. Tasks.  Four spinners, weights 3,1,3,1 — weight-balanced placement
  //    puts one 3:1 pair on each shard, so each pair contends...
  auto spin = [](std::chrono::microseconds d) {
    const auto end = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < end) {
    }
  };
  for (sched::ThreadId tid = 0; tid < 4; ++tid) {
    executor.AddTask(tid, tid % 2 == 0 ? 3.0 : 1.0, [spin] {
      spin(std::chrono::microseconds(50));
      return true;  // run until the wall limit
    });
  }
  // ...plus an interactive task that computes briefly, then blocks on
  // simulated I/O — exercising block -> home dispatcher's wake deadline ->
  // Wakeup -> grant.
  auto io_rounds = std::make_shared<std::atomic<int>>(0);
  executor.AddTask(4, 2.0, [spin, io_rounds]() -> runtime::Executor::WorkResult {
    spin(std::chrono::microseconds(200));
    io_rounds->fetch_add(1, std::memory_order_relaxed);
    return runtime::Executor::WorkResult::Block(Msec(2));
  });

  // 4. Run for one wall second and read the proportional split back.
  executor.Run(Sec(1));

  const Tick heavy = executor.CpuTime(0) + executor.CpuTime(2);
  const Tick light = executor.CpuTime(1) + executor.CpuTime(3);
  const double ratio = light > 0 ? static_cast<double>(heavy) / static_cast<double>(light)
                                 : 0.0;
  const auto wake = executor.wake_to_dispatch_latencies();

  std::cout << "sfs::runtime quickstart (sharded SFS, 2 CPUs, home-CPU wakeups)\n"
            << "  spinner w=3: " << heavy << " us CPU\n"
            << "  spinner w=1: " << light << " us CPU   (ratio " << ratio << ", want ~3)\n"
            << "  I/O task:    " << io_rounds->load() << " block/wake rounds, "
            << executor.wakeups() << " wakeups applied\n"
            << "  wake-to-dispatch p99: " << wake.Percentile(99) << " ns over "
            << wake.count() << " samples\n"
            << "  dispatches: " << executor.dispatches() << ", kicks: " << executor.kicks()
            << "\n";

  // Smoke gates (loose: a loaded 1-core CI host must still pass).
  if (heavy <= 0 || light <= 0 || io_rounds->load() < 10 || executor.wakeups() < 10 ||
      wake.count() == 0) {
    std::cerr << "FAIL: wake path or proportional split broken\n";
    return EXIT_FAILURE;
  }
  std::cout << "OK\n";
  return EXIT_SUCCESS;
}
