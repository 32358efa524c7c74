// Pinned SFS decision paths.  The first three groups of expected values were
// recorded from the surplus-queue implementation of the exact algorithm (a
// global start-tag queue and a surplus queue refreshed and resorted whenever
// v advanced), before the exact pick moved to per-phi start-tag classes; the
// decision-scaling rows at the end say where they come from:
//
//   * eval::HeuristicAccuracy over k in {1, 4, 16}, t in {32, 256} and
//     p in {2, 8} — the Figure 3 audit compares every heuristic decision
//     with the exact answer, so both paths feed these numbers;
//   * run and lifecycle fingerprints of engine runs of the heuristic at
//     k = 4 (eval::HeuristicSfs, refresh period 16);
//   * the same for exact-mode runs with the affinity window and latency
//     warps switched on, the two exact-pick variants the recorded workload
//     fingerprints elsewhere never enable.
//
// Regenerate only for a deliberate schedule change, never to paper over an
// accidental one.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/eval/heuristic_sfs.h"
#include "src/eval/scenarios.h"
#include "src/sched/sfs.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::eval {
namespace {

using sched::ThreadId;

struct AccuracyPin {
  int runnable;
  int k;
  int cpus;
  double accuracy;
};

constexpr AccuracyPin kAccuracyPins[] = {
    {32, 1, 2, 52.725000000000001},  {32, 4, 2, 98.474999999999994},
    {32, 16, 2, 100.0},              {256, 1, 2, 53.600000000000001},
    {256, 4, 2, 98.775000000000006}, {256, 16, 2, 100.0},
    {32, 1, 8, 27.574999999999999},  {32, 4, 8, 39.024999999999999},
    {32, 16, 8, 100.0},              {256, 1, 8, 29.925000000000001},
    {256, 4, 8, 44.424999999999997}, {256, 16, 8, 100.0},
};

TEST(SfsPinnedRunsTest, HeuristicAccuracyUnchanged) {
  for (const AccuracyPin& pin : kAccuracyPins) {
    const double got = HeuristicAccuracy(pin.runnable, pin.k, pin.cpus);
    EXPECT_EQ(got, pin.accuracy) << "t=" << pin.runnable << " k=" << pin.k << " p=" << pin.cpus;
  }
}

struct RunCase {
  int heuristic_k;  // 0: the exact sched::Sfs
  int cpus;
  Tick affinity_tolerance;
  bool warps;
  std::uint64_t run_fingerprint;
  std::uint64_t lifecycle_fingerprint;
};

constexpr RunCase kRunPins[] = {
    {4, 4, 0, false,  //
     0xeca3ed6341de1e6aULL, 0xf58349de20b5d0d8ULL},
    {4, 3, 0, false,  //
     0xe321ab619d2cc4bdULL, 0x284589d5540f2b13ULL},
    {4, 4, Msec(30), true,  //
     0xccc2a839d2b40470ULL, 0x1d3e295d47fc82ddULL},
    {0, 4, Msec(30), false,  //
     0x70a34428776f3da0ULL, 0x176b3497852d7689ULL},
    {0, 3, Msec(50), true,  //
     0xd327a1c353025572ULL, 0x8a3a09fe06285269ULL},
    {0, 2, 0, true,  //
     0x18f2b6718275bae0ULL, 0x870ec8d2bf53b45cULL},
};

// A mixed engine workload on a directly constructed Sfs: weighted hogs (one
// infeasible, so readjustment caps it), interactive sleepers, a stream of
// short jobs arriving and exiting, periodic weight changes, and — when
// `warps` — latency warps set and cleared mid-run.
std::pair<std::uint64_t, std::uint64_t> RunPinned(const RunCase& c) {
  common::Rng rng(2024);
  sched::SchedConfig config;
  config.num_cpus = c.cpus;
  config.quantum = Msec(40);
  config.affinity_tolerance = c.affinity_tolerance;
  const std::unique_ptr<sched::Sfs> scheduler =
      c.heuristic_k > 0
          ? std::make_unique<HeuristicSfs>(config, c.heuristic_k, /*refresh_period=*/16)
          : std::make_unique<sched::Sfs>(config);
  sched::Sfs& sfs = *scheduler;
  sim::EngineConfig engine_config;
  engine_config.context_switch_cost = Usec(50);
  sim::Engine engine(sfs, engine_config);

  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook([&run_fp](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
    run_fp.Mix(static_cast<std::uint64_t>(start));
    run_fp.Mix(static_cast<std::uint64_t>(len));
    run_fp.Mix(static_cast<std::uint64_t>(cpu));
    run_fp.Mix(static_cast<std::uint64_t>(tid));
  });
  engine.SetSchedEventHook([&life_fp](sim::SchedEvent event, const sim::Task& task, Tick now) {
    life_fp.Mix(static_cast<std::uint64_t>(event));
    life_fp.Mix(static_cast<std::uint64_t>(task.tid()));
    life_fp.Mix(static_cast<std::uint64_t>(now));
  });

  ThreadId next_tid = 1;
  std::vector<ThreadId> hogs;
  for (int i = 0; i < 24; ++i) {
    hogs.push_back(next_tid);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 500)),
                     workload::MakeInf(next_tid++, static_cast<double>(rng.UniformInt(1, 12)),
                                       "hog"));
  }
  hogs.push_back(next_tid);
  engine.AddTaskAt(0, workload::MakeInf(next_tid++, 400.0, "heavy"));
  for (int i = 0; i < 6; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(rng.UniformInt(20, 300));
    params.burst = Msec(rng.UniformInt(1, 15));
    params.seed = 77 + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 800)),
                     workload::MakeInteract(next_tid++, static_cast<double>(rng.UniformInt(1, 3)),
                                            params, nullptr, "interact"));
  }
  engine.SetExitHook([&next_tid, &rng](sim::Engine& e, sim::Task& task) {
    if (task.label() == "short") {
      e.AddTaskAt(e.now() + Msec(rng.UniformInt(0, 60)),
                  workload::MakeFixedWork(next_tid++, static_cast<double>(rng.UniformInt(1, 8)),
                                          Msec(rng.UniformInt(10, 300)), "short"));
    }
  });
  for (int i = 0; i < 3; ++i) {
    engine.AddTaskAt(Msec(100 * i),
                     workload::MakeFixedWork(next_tid++, 2.0, Msec(150), "short"));
  }
  engine.AddPeriodicHook(Msec(333), [&](sim::Engine& e) {
    const ThreadId tid = hogs[static_cast<std::size_t>(rng.UniformInt(0, 23))];
    if (e.HasTask(tid) && e.task(tid).state() != sim::Task::State::kNew) {
      e.scheduler().SetWeight(tid, static_cast<double>(rng.UniformInt(1, 40)));
    }
    if (c.warps) {
      const ThreadId warped = hogs[static_cast<std::size_t>(rng.UniformInt(0, 23))];
      if (e.HasTask(warped) && e.task(warped).state() != sim::Task::State::kNew) {
        sfs.SetWarp(warped, rng.Bernoulli(0.5) ? 0.0 : static_cast<double>(Msec(20)));
      }
    }
  });

  engine.RunUntil(Sec(12));
  return {run_fp.value(), life_fp.value()};
}

TEST(SfsPinnedRunsTest, EngineRunsUnchanged) {
  for (const RunCase& c : kRunPins) {
    const auto [run, life] = RunPinned(c);
    EXPECT_EQ(run, c.run_fingerprint) << "k=" << c.heuristic_k << " p=" << c.cpus;
    EXPECT_EQ(life, c.lifecycle_fingerprint) << "k=" << c.heuristic_k << " p=" << c.cpus;
  }
}

// Ablation A9's lockstep regime (eval::RunScaling, p=2, every thread
// arriving at t=0 with an integer weight in 1..20, so whole phi classes share
// start tags), at the horizon abl_decision_scaling uses for these sizes.
// Recorded from the exact pick that walked every entity tied with a class
// head's surplus, before runs of equal start tags were skipped.
struct ScalingPin {
  int threads;
  std::int64_t decisions;
  std::uint64_t schedule_fingerprint;
  std::int64_t full_refreshes;
};

constexpr ScalingPin kScalingPins[] = {
    {10, 3002, 0x534094b6cbdcd42aULL, 2039},
    {100, 3002, 0xfe8200e3dac67e13ULL, 468},
    {1000, 3002, 0x7d82e111ff0f7f75ULL, 34},
};

TEST(SfsPinnedRunsTest, DecisionScalingRunsUnchanged) {
  for (const ScalingPin& pin : kScalingPins) {
    const RunScalingResult run = RunScaling(pin.threads, /*cpus=*/2, Sec(300), /*seed=*/1);
    EXPECT_EQ(run.decisions, pin.decisions) << "t=" << pin.threads;
    EXPECT_EQ(run.schedule_fingerprint, pin.schedule_fingerprint) << "t=" << pin.threads;
    EXPECT_EQ(run.full_refreshes, pin.full_refreshes) << "t=" << pin.threads;
  }
}

}  // namespace
}  // namespace sfs::eval
