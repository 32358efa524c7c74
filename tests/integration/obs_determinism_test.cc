// Tracing invariance: attaching an obs::Trace and an obs::MetricsRegistry to
// the engine must not change a single scheduling decision.  For every
// scheduler kind (flat and sharded alike) and several seeds, a randomized
// churn workload — hogs, interactive sleepers, a chained short-job band and a
// mid-run kill — runs three times: untraced, traced with roomy rings, and
// traced with rings so small they wrap constantly (the overflow path must be
// as invisible as the happy path).  Run-interval and lifecycle fingerprints,
// per-task services and the engine counters must be byte-identical across all
// three; the traced runs additionally sanity-check the recorded streams
// against the engine's own counters.
//
// SFS_FUZZ_SEEDS bounds the seeds tried per policy (default 4).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;
using sched::ThreadId;

struct RunResult {
  std::uint64_t run_fingerprint = 0;
  std::uint64_t lifecycle_fingerprint = 0;
  std::vector<Tick> services;
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  std::int64_t steals = 0;

  bool operator==(const RunResult&) const = default;
};

struct Sinks {
  obs::Trace* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// One randomized workload at the given seed; all randomness flows through
// Rng(seed), so two runs diverge only if recording feeds back into decisions.
RunResult RunOnce(SchedKind kind, std::uint64_t seed, const Sinks& sinks) {
  common::Rng rng(seed);
  sched::SchedConfig config;
  config.num_cpus = static_cast<int>(rng.UniformInt(1, 4));
  config.quantum = Msec(rng.UniformInt(5, 100));
  SchedKind effective_kind = kind;
  if (const auto sharded_kind = sched::ShardedKindFor(kind); sharded_kind.has_value()) {
    if (rng.Bernoulli(0.5)) {
      effective_kind = *sharded_kind;
      config.shard_steal = sched::ShardStealPolicy::kMaxSurplus;
      config.shard_rebalance_period = static_cast<int>(rng.UniformInt(4, 64));
      config.shard_coupling = 1.0;
    }
  }
  auto scheduler = CreateScheduler(effective_kind, config);

  sim::EngineConfig engine_config;
  engine_config.context_switch_cost = Usec(rng.UniformInt(0, 200));
  engine_config.trace = sinks.trace;
  engine_config.metrics = sinks.metrics;
  sim::Engine engine(*scheduler, engine_config);

  RunResult result;
  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook(
      [&run_fp](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
        run_fp.Mix(static_cast<std::uint64_t>(start));
        run_fp.Mix(static_cast<std::uint64_t>(len));
        run_fp.Mix(static_cast<std::uint64_t>(cpu));
        run_fp.Mix(static_cast<std::uint64_t>(tid));
      });
  engine.SetSchedEventHook(
      [&life_fp](sim::SchedEvent event, const sim::Task& task, Tick now) {
        life_fp.Mix(static_cast<std::uint64_t>(event));
        life_fp.Mix(static_cast<std::uint64_t>(task.tid()));
        life_fp.Mix(static_cast<std::uint64_t>(now));
      });

  ThreadId next_tid = 1;
  std::vector<ThreadId> hogs;
  const int n_hogs = static_cast<int>(rng.UniformInt(2, 6));
  for (int i = 0; i < n_hogs; ++i) {
    hogs.push_back(next_tid);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 1000)),
                     workload::MakeInf(next_tid++, static_cast<double>(rng.UniformInt(1, 20)),
                                       "hog"));
  }
  const int n_interact = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < n_interact; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(rng.UniformInt(20, 150));
    params.burst = Msec(rng.UniformInt(1, 10));
    params.seed = seed + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 500)),
                     workload::MakeInteract(next_tid++, 1.0, params, nullptr, "interact"));
  }
  engine.SetExitHook([&next_tid, &rng](sim::Engine& e, sim::Task& task) {
    if (task.label() == "short") {
      e.AddTaskAt(e.now() + Msec(rng.UniformInt(0, 40)),
                  workload::MakeFixedWork(next_tid++, static_cast<double>(rng.UniformInt(1, 8)),
                                          Msec(rng.UniformInt(10, 300)), "short"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, 2.0, Msec(100), "short"));
  engine.AddPeriodicHook(Msec(1333), [&, done = false](sim::Engine& e) mutable {
    if (!done && e.HasTask(hogs[1]) &&
        e.task(hogs[1]).state() != sim::Task::State::kExited) {
      e.KillTask(hogs[1]);
      done = true;
    }
  });

  engine.RunUntil(Sec(5));

  engine.ForEachTask(
      [&](const sim::Task& task) { result.services.push_back(engine.Service(task.tid())); });
  result.run_fingerprint = run_fp.value();
  result.lifecycle_fingerprint = life_fp.value();
  result.events = engine.events_processed();
  result.dispatches = engine.dispatches();
  result.preemptions = engine.preemptions();
  result.steals = engine.steals();
  return result;
}

std::uint64_t FuzzSeedCount() {
  if (const char* env = std::getenv("SFS_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::uint64_t>(parsed);
    }
  }
  return 4;
}

class ObsDeterminismTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(ObsDeterminismTest, TracingOnOrOffProducesByteIdenticalSchedules) {
  for (std::uint64_t seed = 1; seed <= FuzzSeedCount(); ++seed) {
    const RunResult off = RunOnce(GetParam(), seed, {});

    // Roomy rings: nothing drops, so every grant/charge pair is retained.
    obs::Trace trace(/*num_cpus=*/4, /*capacity_per_ring=*/1 << 16);
    obs::MetricsRegistry metrics(/*num_shards=*/1);
    const RunResult traced = RunOnce(GetParam(), seed, {&trace, &metrics});
    EXPECT_EQ(off, traced) << "policy " << sched::SchedKindName(GetParam())
                           << " seed " << seed;

    // Cross-check the recorded streams against the engine's own accounting.
    // Grants == dispatches (one kGrant per dispatch; rings did not wrap).
    std::uint64_t grants = 0;
    std::uint64_t runs = 0;
    for (int cpu = 0; cpu < trace.num_cpus(); ++cpu) {
      trace.ring(cpu).ForEach([&](const obs::TraceRecord& r) {
        grants += r.kind == obs::TraceEventKind::kGrant ? 1 : 0;
        runs += r.kind == obs::TraceEventKind::kRun ? 1 : 0;
      });
    }
    EXPECT_EQ(trace.total_dropped(), 0u) << "seed " << seed;
    EXPECT_EQ(grants, static_cast<std::uint64_t>(traced.dispatches)) << "seed " << seed;
    EXPECT_GT(runs, 0u) << "seed " << seed;
    const auto hist =
        metrics.GetHistogram("sim/quantum_ticks").Snapshot();
    EXPECT_EQ(hist.count(), grants) << "seed " << seed;

    // Constantly-wrapping rings: the overflow path must be equally invisible.
    obs::Trace tiny(/*num_cpus=*/4, /*capacity_per_ring=*/8);
    const RunResult wrapped = RunOnce(GetParam(), seed, {.trace = &tiny});
    EXPECT_EQ(off, wrapped) << "policy " << sched::SchedKindName(GetParam())
                            << " seed " << seed;
    EXPECT_GT(tiny.total_dropped(), 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ObsDeterminismTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq,
                                           SchedKind::kWfq, SchedKind::kTimeshare),
                         [](const ::testing::TestParamInfo<SchedKind>& param_info) {
                           std::string name(sched::SchedKindName(param_info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace sfs::eval
