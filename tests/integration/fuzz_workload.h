// The randomized integration workload that fuzz_test, event_queue_fuzz_test
// and recorded_runs_test all run.  Each seed draws a scheduler (CPU count,
// quantum and, for SFS and SFQ, whether to run behind the sharded layer with
// random steal, rebalance and coupling knobs) and a workload: hogs,
// interactive sleepers, a churning short-job chain through the exit hook,
// periodic weight surgery and a one-shot kill, run for kFuzzHorizon.
//
// All randomness flows through Rng(seed) in a fixed draw order, so any two
// runners fed the same seed build the same simulation.  recorded_runs.h holds
// the serial engine's results for seeds 1-6: reordering, adding or dropping a
// draw changes every recorded row after it.
//
// A serial run fingerprints the run-interval and lifecycle streams with FNV-1a
// and, for the policies that have one, runs the policy's own state audit after
// every run interval and lifecycle event; the first violation fails the
// calling test.
//
// SFS_FUZZ_SEEDS bounds the seeds tried per policy.  SFS_FUZZ_SHARDED ("0" /
// "1") pins the sharded draw for runs that honor the environment; the recorded
// rows depend on the seed alone, so runs compared against them do not.

#ifndef SFS_TESTS_INTEGRATION_FUZZ_WORKLOAD_H_
#define SFS_TESTS_INTEGRATION_FUZZ_WORKLOAD_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sched/hsfs.h"
#include "src/sched/sfq.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sched/wfq.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::eval {

inline constexpr Tick kFuzzHorizon = Sec(10);

// SFS_FUZZ_SEEDS when set to a positive number, else `default_seeds`.
inline std::uint64_t FuzzSeedCount(std::uint64_t default_seeds) {
  if (const char* env = std::getenv("SFS_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::uint64_t>(parsed);
    }
  }
  return default_seeds;
}

struct TraceResult {
  std::uint64_t run_fingerprint = 0;
  std::uint64_t lifecycle_fingerprint = 0;
  std::vector<Tick> services;  // Service() per task, in ForEachTask order
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  Tick idle = 0;
  Tick ctx_cost = 0;
  // Sum of ServiceIncludingRunning over all tasks: busy + idle + ctx_cost is
  // the machine's capacity, num_cpus x horizon.
  Tick busy = 0;
  int num_cpus = 0;

  bool operator==(const TraceResult&) const = default;
};

// The policy's own state audit: ShardedScheduler::CheckInvariants for the
// sharded kinds, the policy's CheckInvariants for flat SFS, SFQ, WFQ and
// H-SFS, and an empty function for time sharing.  The audit returns "" or the
// first violation it finds.
inline std::function<std::string()> AuditFor(const sched::Scheduler& scheduler) {
  if (const auto* sharded = dynamic_cast<const sched::ShardedScheduler*>(&scheduler)) {
    return [sharded] { return sharded->CheckInvariants(); };
  }
  if (const auto* sfs = dynamic_cast<const sched::Sfs*>(&scheduler)) {
    return [sfs] { return sfs->CheckInvariants(); };
  }
  if (const auto* sfq = dynamic_cast<const sched::Sfq*>(&scheduler)) {
    return [sfq] { return sfq->CheckInvariants(); };
  }
  if (const auto* wfq = dynamic_cast<const sched::Wfq*>(&scheduler)) {
    return [wfq] { return wfq->CheckInvariants(); };
  }
  if (const auto* hsfs = dynamic_cast<const sched::HierarchicalSfs*>(&scheduler)) {
    return [hsfs] { return hsfs->CheckInvariants(); };
  }
  return {};
}

// What a run's two engine hooks accumulate: the run-interval and lifecycle
// fingerprints and, when `audit` is set, the first violation it reports.  The
// hooks only read, so they move no random draw and no decision.
struct RunObserver {
  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  std::function<std::string()> audit;
  std::string violation;

  void OnRunInterval(Tick start, Tick len, sched::CpuId cpu, sched::ThreadId tid) {
    run_fp.MixRun(start, len, cpu, tid);
    Audit("run interval", tid, start + len);
  }

  void OnSchedEvent(sim::SchedEvent event, const sim::Task& task, Tick now) {
    life_fp.MixEvent(event, task.tid(), now);
    constexpr const char* kNames[] = {"arrival", "departure", "block", "wakeup"};
    Audit(kNames[static_cast<int>(event)], task.tid(), now);
  }

  // Installs this observer in both of the engine's hook slots.
  void Attach(sim::Engine& engine) {
    engine.SetRunIntervalHook([this](Tick start, Tick len, sched::CpuId cpu,
                                     sched::ThreadId tid) { OnRunInterval(start, len, cpu, tid); });
    engine.SetSchedEventHook([this](sim::SchedEvent event, const sim::Task& task, Tick now) {
      OnSchedEvent(event, task, now);
    });
  }

 private:
  // Later violations usually repeat the first, so only the first is kept.
  void Audit(const char* after, sched::ThreadId tid, Tick now) {
    if (!audit || !violation.empty()) {
      return;
    }
    if (std::string found = audit(); !found.empty()) {
      violation = found + " (after " + after + " of tid " + std::to_string(tid) +
                  " at t=" + std::to_string(now) + ")";
    }
  }
};

// Draws the scheduler: the first draws of every seed.  `honor_env` lets
// SFS_FUZZ_SHARDED override the sharded coin flip (the flip is still drawn).
inline std::unique_ptr<sched::Scheduler> DrawScheduler(sched::SchedKind kind, common::Rng& rng,
                                                       bool honor_env = true) {
  sched::SchedConfig config;
  config.num_cpus = static_cast<int>(rng.UniformInt(1, 4));
  config.quantum = Msec(rng.UniformInt(5, 200));
  // Once the run-queue backend; still drawn so the recorded runs keep their draws.
  (void)rng.Bernoulli(0.5);
  sched::SchedKind effective_kind = kind;
  if (const auto sharded_kind = sched::ShardedKindFor(kind); sharded_kind.has_value()) {
    bool use_sharded = rng.Bernoulli(0.5);
    if (const char* env = std::getenv("SFS_FUZZ_SHARDED"); honor_env && env != nullptr) {
      use_sharded = env[0] == '1';
    }
    if (use_sharded) {
      effective_kind = *sharded_kind;
      config.shard_steal = rng.Bernoulli(0.75) ? sched::ShardStealPolicy::kMaxSurplus
                                               : sched::ShardStealPolicy::kNone;
      config.shard_rebalance_period =
          rng.Bernoulli(0.5) ? static_cast<int>(rng.UniformInt(4, 256)) : 0;
      config.shard_coupling = 0.5 * static_cast<double>(rng.UniformInt(0, 2));
    }
  }
  return CreateScheduler(effective_kind, config);
}

// Adds the workload to `engine`; the draws after the engine's context-switch
// cost.  Generic over sim::Engine and sim::ParallelEngine at workers == 1:
// both expose the same names, so the same draws build the same simulation.
// `rng`, `next_tid` and `hogs` must outlive the run (the hooks hold them).
template <typename EngineT>
void BuildSerialWorkload(EngineT& engine, common::Rng& rng, std::uint64_t seed,
                         sched::ThreadId& next_tid, std::vector<sched::ThreadId>& hogs) {
  const int n_hogs = static_cast<int>(rng.UniformInt(1, 6));
  for (int i = 0; i < n_hogs; ++i) {
    hogs.push_back(next_tid);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 2000)),
                     workload::MakeInf(next_tid++, static_cast<double>(rng.UniformInt(1, 30)),
                                       "hog"));
  }
  const int n_interact = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < n_interact; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(rng.UniformInt(20, 200));
    params.burst = Msec(rng.UniformInt(1, 10));
    params.seed = seed + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 1000)),
                     workload::MakeInteract(next_tid++, 1.0, params, nullptr, "interact"));
  }
  // A churning chain of short jobs: exit-hook execution order feeds straight
  // back into the event queue as same-tick arrivals, the hardest case for
  // both the FIFO contract and the batched drain, which must pick re-pushed
  // events up behind the detached chain in (time, insertion) order.
  engine.SetExitHook([&next_tid, &rng](auto& e, sim::Task& task) {
    if (task.label() == "short") {
      e.AddTaskAt(e.now() + Msec(rng.UniformInt(0, 50)),
                  workload::MakeFixedWork(next_tid++, static_cast<double>(rng.UniformInt(1, 10)),
                                          Msec(rng.UniformInt(10, 400)), "short"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, 2.0, Msec(100), "short"));

  // Mid-run weight surgery and a kill: the detach/attach paths and the
  // live-list swap-and-pop while queues are hot.
  engine.AddPeriodicHook(Msec(777), [&](auto& e) {
    if (!hogs.empty() && e.HasTask(hogs[0])) {
      const auto state = e.task(hogs[0]).state();
      // Only threads the scheduler knows about (arrived, not exited).
      if (state != sim::Task::State::kExited && state != sim::Task::State::kNew &&
          rng.Bernoulli(0.5)) {
        e.scheduler().SetWeight(hogs[0], static_cast<double>(rng.UniformInt(1, 50)));
      }
    }
  });
  const Tick kill_at = Msec(rng.UniformInt(2500, 5000));
  engine.AddPeriodicHook(kill_at, [&, done = false](auto& e) mutable {
    if (!done && hogs.size() > 1 && e.HasTask(hogs[1]) &&
        e.task(hogs[1]).state() != sim::Task::State::kExited) {
      e.KillTask(hogs[1]);
      done = true;
    }
  });
}

template <typename EngineT>
TraceResult Collect(EngineT& engine, const RunObserver& observer) {
  TraceResult result;
  engine.ForEachTask([&](const sim::Task& task) {
    result.services.push_back(engine.Service(task.tid()));
    result.busy += engine.ServiceIncludingRunning(task.tid());
  });
  result.run_fingerprint = observer.run_fp.value();
  result.lifecycle_fingerprint = observer.life_fp.value();
  result.events = engine.events_processed();
  result.dispatches = engine.dispatches();
  result.preemptions = engine.preemptions();
  result.idle = engine.idle_time();
  result.ctx_cost = engine.total_context_switch_cost();
  result.num_cpus = engine.scheduler().num_cpus();
  return result;
}

// One seed of the workload on the serial engine, audited throughout: a
// violation fails the calling test with the audit's message.
inline TraceResult RunFuzzWorkload(sched::SchedKind kind, std::uint64_t seed,
                                   bool honor_env = true) {
  common::Rng rng(seed);
  auto scheduler = DrawScheduler(kind, rng, honor_env);

  sim::EngineConfig engine_config;
  engine_config.context_switch_cost = Usec(rng.UniformInt(0, 500));
  sim::Engine engine(*scheduler, engine_config);

  RunObserver observer;
  observer.audit = AuditFor(*scheduler);
  observer.Attach(engine);

  sched::ThreadId next_tid = 1;
  std::vector<sched::ThreadId> hogs;
  BuildSerialWorkload(engine, rng, seed, next_tid, hogs);
  engine.RunUntil(kFuzzHorizon);
  EXPECT_EQ(observer.violation, "") << "kind=" << sched::SchedKindName(kind) << " seed=" << seed;
  return Collect(engine, observer);
}

}  // namespace sfs::eval

#endif  // SFS_TESTS_INTEGRATION_FUZZ_WORKLOAD_H_
