// Real threads, real CPU: the user-level executor runs actual std::threads under
// SFS with cooperative preemption, demonstrating proportional sharing on the
// host machine (not in the simulator).
//
//   $ ./examples/realtime_exec

#include <array>
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>

#include "src/common/table.h"
#include "src/runtime/executor.h"
#include "src/sched/sfs.h"

int main() {
  using namespace sfs;

  sched::SchedConfig config;
  config.num_cpus = 2;  // two workers may hold the CPU at once
  sched::Sfs scheduler(config);

  runtime::Executor::Config exec_config;
  exec_config.quantum = Msec(10);
  runtime::Executor executor(scheduler, exec_config);

  // Three spinning workers with weights 1 : 2 : 4 — each work unit burns ~50 us.
  auto units = std::make_shared<std::array<std::atomic<std::int64_t>, 3>>();
  const double weights[] = {1.0, 2.0, 4.0};
  for (sched::ThreadId tid = 0; tid < 3; ++tid) {
    executor.AddTask(tid, weights[tid], [units, tid] {
      const auto end = std::chrono::steady_clock::now() + std::chrono::microseconds(50);
      while (std::chrono::steady_clock::now() < end) {
      }
      (*units)[static_cast<std::size_t>(tid)].fetch_add(1, std::memory_order_relaxed);
      return true;  // run until the wall limit
    });
  }

  std::cout << "Running 3 real threads (weights 1:2:4) on 2 virtual CPUs for 2s...\n\n";
  const Tick wall = executor.Run(Sec(2));

  common::Table table({"task", "weight", "work units", "CPU time (ms)", "share"});
  Tick total_cpu = 0;
  for (sched::ThreadId tid = 0; tid < 3; ++tid) {
    total_cpu += executor.CpuTime(tid);
  }
  for (sched::ThreadId tid = 0; tid < 3; ++tid) {
    const Tick cpu = executor.CpuTime(tid);
    table.AddRow({"worker-" + std::to_string(tid), common::Table::Cell(weights[tid], 0),
                  common::Table::Cell((*units)[static_cast<std::size_t>(tid)].load()),
                  common::Table::Cell(cpu / kTicksPerMsec),
                  common::Table::Cell(static_cast<double>(cpu) / static_cast<double>(total_cpu),
                                      3)});
  }
  table.Print(std::cout);

  std::cout << "\nwall time: " << ToMillis(wall) << " ms,  dispatches: " << executor.dispatches()
            << ",  median preempt latency: "
            << executor.preempt_latencies().Percentile(50) << " us\n"
            << "\nNote: weights 1:2:4 on 2 CPUs are infeasible for the heavy task (4/7 > 1/2).\n"
            << "The readjustment algorithm caps it at one full CPU (share 0.50) and the\n"
            << "1:2 remainder splits the other, so the expected shares are 0.17 : 0.33 : 0.50.\n";
  return 0;
}
