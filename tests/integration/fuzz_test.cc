// Randomized end-to-end stress: every scheduler driven by random workload mixes
// (compute hogs, interactive sleepers, churning short jobs, mid-run kills and
// weight changes) with engine invariants checked throughout.  The point is not
// a specific allocation but that no protocol invariant, accounting identity or
// determinism property ever breaks.
//
// SFS_FUZZ_SEEDS bounds the seeds tried per policy (default 6); CI sets a
// small value to keep the suite under a minute on slow runners.
// SFS_FUZZ_SHARDED ("0" / "1") pins whether GPS policies run behind the
// sharded per-CPU layer; unset, each seed draws it (plus random steal,
// rebalance and coupling knobs) so flat and sharded variants are both fuzzed.
// A sharded seed also audits the sharded layer's whole state
// (ShardedScheduler::CheckInvariants), and a flat sfs seed the phi classes and
// run queues (Sfs::CheckInvariants), after every lifecycle event and every run
// interval.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;
using sched::ThreadId;

class EngineFuzzTest : public ::testing::TestWithParam<SchedKind> {};

std::vector<Tick> RunOnce(SchedKind kind, std::uint64_t seed, Tick* idle_out,
                          Tick* ctx_cost_out) {
  common::Rng rng(seed);
  sched::SchedConfig config;
  config.num_cpus = static_cast<int>(rng.UniformInt(1, 4));
  config.quantum = Msec(rng.UniformInt(5, 200));
  // Once the run-queue backend; still drawn so each seed keeps its workload.
  (void)rng.Bernoulli(0.5);
  // Sharded dimension: SFS and SFQ also run behind per-CPU shards with
  // randomized steal/rebalance/coupling knobs, drawn per seed.
  SchedKind effective_kind = kind;
  if (const auto sharded_kind = sched::ShardedKindFor(kind); sharded_kind.has_value()) {
    bool use_sharded = rng.Bernoulli(0.5);
    if (const char* env = std::getenv("SFS_FUZZ_SHARDED"); env != nullptr) {
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
  auto scheduler = CreateScheduler(effective_kind, config);

  sim::EngineConfig engine_config;
  engine_config.context_switch_cost = Usec(rng.UniformInt(0, 500));
  sim::Engine engine(*scheduler, engine_config);

  // The audit hooks only read, so they move no random draw and no decision.
  // The first violation is kept; later ones usually repeat it.
  std::string violation;
  std::function<std::string()> check_invariants;
  if (const auto* sharded = dynamic_cast<const sched::ShardedScheduler*>(scheduler.get());
      sharded != nullptr) {
    check_invariants = [sharded] { return sharded->CheckInvariants(); };
  } else if (const auto* sfs = dynamic_cast<const sched::Sfs*>(scheduler.get()); sfs != nullptr) {
    check_invariants = [sfs] { return sfs->CheckInvariants(); };
  }
  if (check_invariants) {
    const auto audit = [&check_invariants, &violation](const char* after, ThreadId tid, Tick now) {
      if (!violation.empty()) {
        return;
      }
      if (std::string found = check_invariants(); !found.empty()) {
        violation = found + " (after " + after + " of tid " + std::to_string(tid) + " at t=" +
                    std::to_string(now) + ")";
      }
    };
    engine.SetSchedEventHook([audit](sim::SchedEvent event, const sim::Task& task, Tick now) {
      constexpr const char* kNames[] = {"arrival", "departure", "block", "wakeup"};
      audit(kNames[static_cast<int>(event)], task.tid(), now);
    });
    engine.SetRunIntervalHook([audit](Tick start, Tick length, sched::CpuId, ThreadId tid) {
      audit("run interval", tid, start + length);
    });
  }

  ThreadId next_tid = 1;
  std::vector<ThreadId> hogs;
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
  // A churning chain of short jobs.
  engine.SetExitHook([&next_tid, &rng](sim::Engine& e, sim::Task& task) {
    if (task.label() == "short") {
      e.AddTaskAt(e.now() + Msec(rng.UniformInt(0, 50)),
                  workload::MakeFixedWork(next_tid++, static_cast<double>(rng.UniformInt(1, 10)),
                                          Msec(rng.UniformInt(10, 400)), "short"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, 2.0, Msec(100), "short"));

  // Random mid-run surgery: weight changes and a kill.
  engine.AddPeriodicHook(Msec(777), [&](sim::Engine& e) {
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
  engine.AddPeriodicHook(kill_at, [&, done = false](sim::Engine& e) mutable {
    if (!done && hogs.size() > 1 && e.HasTask(hogs[1]) &&
        e.task(hogs[1]).state() != sim::Task::State::kExited) {
      e.KillTask(hogs[1]);
      done = true;
    }
  });

  const Tick horizon = Sec(10);
  engine.RunUntil(horizon);
  EXPECT_EQ(violation, "") << "kind=" << SchedKindName(kind) << " seed=" << seed;

  // Accounting identity: service + idle + switch cost == capacity.
  Tick total_service = 0;
  engine.ForEachTask([&](const sim::Task& task) {
    total_service += engine.ServiceIncludingRunning(task.tid());
  });
  EXPECT_EQ(total_service + engine.idle_time() + engine.total_context_switch_cost(),
            static_cast<Tick>(config.num_cpus) * horizon)
      << "kind=" << SchedKindName(kind) << " seed=" << seed;

  *idle_out = engine.idle_time();
  *ctx_cost_out = engine.total_context_switch_cost();

  std::vector<Tick> services;
  engine.ForEachTask(
      [&](const sim::Task& task) { services.push_back(engine.Service(task.tid())); });
  std::sort(services.begin(), services.end());
  return services;
}

std::uint64_t FuzzSeedCount() {
  if (const char* env = std::getenv("SFS_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::uint64_t>(parsed);
    }
  }
  return 6;
}

TEST_P(EngineFuzzTest, AccountingAndDeterminismAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= FuzzSeedCount(); ++seed) {
    Tick idle_a = 0;
    Tick idle_b = 0;
    Tick cost_a = 0;
    Tick cost_b = 0;
    const auto run_a = RunOnce(GetParam(), seed, &idle_a, &cost_a);
    const auto run_b = RunOnce(GetParam(), seed, &idle_b, &cost_b);
    // Bit-exact determinism: same seed, same everything.
    EXPECT_EQ(run_a, run_b) << "seed " << seed;
    EXPECT_EQ(idle_a, idle_b);
    EXPECT_EQ(cost_a, cost_b);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EngineFuzzTest,
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
