// Self-tests of the benchmark's own machinery:
//   * the timing decorators leave schedules unchanged, for sfs and sharded-sfs;
//   * the percentile helper reports the highest percentile with at least ten
//     samples beyond it, and the sample count;
//   * the input generators are deterministic in the seed.
// Exits 0 when every test passes.  Run: sfsperf_selftest (or
// `python3 perfbench/run.py --selftest`).

#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/inputs.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/stats.h"
#include "src/timed_layers.h"
#include "src/workload/workloads.h"

namespace sfsperf {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++failures;
  }
}

struct SmallRun {
  std::uint64_t schedule = 0;
  std::uint64_t lifecycle = 0;
  std::int64_t events = 0;
};

// A small mixed instance: hogs, sleepers, short jobs and weight changes on
// four CPUs, fingerprinted exactly as the benchmark does.
SmallRun RunSmall(bool sharded, bool traced) {
  sfs::sched::SchedConfig config;
  config.num_cpus = 4;
  std::unique_ptr<sfs::sched::Scheduler> scheduler;
  if (traced) {
    scheduler = sharded ? std::unique_ptr<sfs::sched::Scheduler>(
                              std::make_unique<TimedSharded>(config))
                        : std::make_unique<TimedSfs>(config, false);
  } else {
    scheduler = sfs::sched::MakeScheduler(sharded ? "sharded-sfs" : "sfs", config);
  }
  sfs::sim::Engine engine(*scheduler);
  sfs::common::Fnv1a run_fp;
  sfs::common::Fnv1a life_fp;
  engine.SetRunIntervalHook([&](sfs::Tick start, sfs::Tick len, sfs::sched::CpuId cpu,
                                sfs::sched::ThreadId tid) {
    for (const auto v : {start, len, sfs::Tick{cpu}, sfs::Tick{tid}}) {
      run_fp.Mix(static_cast<std::uint64_t>(v));
    }
  });
  engine.SetSchedEventHook(
      [&](sfs::sim::SchedEvent event, const sfs::sim::Task& task, sfs::Tick now) {
        for (const auto v : {sfs::Tick{static_cast<int>(event)}, sfs::Tick{task.tid()}, now}) {
          life_fp.Mix(static_cast<std::uint64_t>(v));
        }
      });
  auto add = [&](sfs::Tick at, sfs::sched::ThreadId tid, double w,
                 std::unique_ptr<sfs::sim::Behavior> b) {
    if (traced) {
      b = std::make_unique<TimedBehavior>(std::move(b));
    }
    auto task = std::make_unique<sfs::sim::Task>(tid, w, std::move(b));
    task->set_home_cpu(tid % 4);
    engine.AddTaskAt(at, std::move(task));
  };
  sfs::sched::ThreadId tid = 1;
  for (int i = 0; i < 6; ++i) {
    add(0, tid++, 1.0 + i, std::make_unique<sfs::workload::Dhrystone>());
  }
  for (int i = 0; i < 20; ++i) {
    sfs::workload::Interact::Params params;
    params.mean_think = sfs::Msec(50 + 10 * i);
    params.burst = sfs::Usec(300);
    params.seed = 17 + static_cast<std::uint64_t>(i);
    add(sfs::Msec(i), tid++, 1.0, std::make_unique<sfs::workload::Interact>(params, nullptr));
  }
  for (int i = 0; i < 10; ++i) {
    add(sfs::Msec(100 * i), tid++, 2.0,
        std::make_unique<sfs::workload::FixedWork>(sfs::Msec(30)));
  }
  engine.AddPeriodicHook(sfs::Msec(70), [n = 0](sfs::sim::Engine& e) mutable {
    e.scheduler().SetWeight(1 + n % 6, 1.0 + n % 5);
    ++n;
  });
  engine.RunUntil(sfs::Sec(3));
  return {run_fp.value(), life_fp.value(), engine.events_processed()};
}

void TestDecoratorsPreserveSchedules() {
  for (const bool sharded : {false, true}) {
    const SmallRun plain = RunSmall(sharded, false);
    const SmallRun timed = RunSmall(sharded, true);
    Expect(plain.events > 1000, sharded ? "sharded-sfs instance is non-trivial"
                                        : "sfs instance is non-trivial");
    Expect(plain.schedule == timed.schedule && plain.lifecycle == timed.lifecycle &&
               plain.events == timed.events,
           sharded ? "timing decorators leave sharded-sfs fingerprints unchanged"
                   : "timing decorators leave sfs fingerprints unchanged");
  }
}

void TestPercentileHelper() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(i);
  }
  auto tail = HighestSupportedPercentile(samples);
  Expect(tail && tail->percentile == 99.0 && tail->value == 990.0 && tail->samples == 1000 &&
             tail->beyond == 10,
         "1000 samples: p99 = 990 with exactly 10 beyond");
  samples.pop_back();
  tail = HighestSupportedPercentile(samples);
  Expect(tail && tail->percentile == 90.0 && tail->samples == 999 && tail->beyond >= 10,
         "999 samples: p99 lacks support, p90 reported");
  samples.resize(15);
  tail = HighestSupportedPercentile(samples);
  Expect(!tail, "15 samples: even p50 lacks 10 beyond");
  samples.resize(20);
  for (int i = 0; i < 20; ++i) {
    samples[static_cast<std::size_t>(i)] = i + 1;
  }
  tail = HighestSupportedPercentile(samples);
  Expect(tail && tail->percentile == 50.0 && tail->value == 10.0 && tail->beyond == 10,
         "20 samples: p50 = 10 with 10 beyond");
  for (int i = 1; i <= 20000; ++i) {
    samples.push_back(i);
  }
  tail = HighestSupportedPercentile(samples);
  Expect(tail && tail->percentile == 99.9 && tail->samples == 20020,
         "20020 samples: p99.9 supported");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5 && Percentile({5.0, 1.0, 3.0}, 50.0) == 3.0,
         "median and nearest-rank percentile");
}

void TestGeneratorsDeterministic() {
  Expect(MakeCpuBoundInputs(kDefaultSeed).Serialize() ==
             MakeCpuBoundInputs(kDefaultSeed).Serialize(),
         "sim_cpu_bound inputs repeat for one seed");
  Expect(MakeIoInputs(kHeldOutSeed).Serialize() == MakeIoInputs(kHeldOutSeed).Serialize(),
         "sim_io inputs repeat for one seed");
  Expect(MakeRuntimeInputs(5).Serialize() == MakeRuntimeInputs(5).Serialize(),
         "runtime_mixed inputs repeat for one seed");
  Expect(MakeCpuBoundInputs(1).Serialize() != MakeCpuBoundInputs(2).Serialize() &&
             MakeIoInputs(1).Serialize() != MakeIoInputs(2).Serialize() &&
             MakeRuntimeInputs(1).Serialize() != MakeRuntimeInputs(2).Serialize(),
         "different seeds give different inputs");
  const SimInputs cpu = MakeCpuBoundInputs(kDefaultSeed);
  double sum = 0.0;
  double heaviest = 0.0;
  for (const SimTaskSpec& t : cpu.tasks) {
    if (t.arrival == 0) {
      sum += t.weight;
      heaviest = std::max(heaviest, t.weight);
    }
  }
  Expect(heaviest > sum / cpu.cpus, "sim_cpu_bound has infeasible weights");
}

}  // namespace
}  // namespace sfsperf

int main() {
  sfsperf::TestDecoratorsPreserveSchedules();
  sfsperf::TestPercentileHelper();
  sfsperf::TestGeneratorsDeterministic();
  std::printf("%d failure(s)\n", sfsperf::failures);
  return sfsperf::failures == 0 ? 0 : 1;
}
