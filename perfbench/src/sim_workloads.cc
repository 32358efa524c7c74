#include "src/sim_workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "src/common/fingerprint.h"
#include "src/sched/factory.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sim/engine.h"
#include "src/sim/parallel_engine.h"
#include "src/timed_layers.h"
#include "src/timing.h"
#include "src/workload/workloads.h"

namespace sfsperf {

using sfs::common::Fnv1a;
using sfs::sched::CpuId;
using sfs::sched::SchedConfig;
using sfs::sched::Scheduler;
using sfs::sched::ThreadId;

namespace {

// Pinned with kDefaultSeed; a change to any of these is a schedule change.
constexpr PinnedFingerprints kPinnedCpuBound{0xb2d4c37770cbf38fULL, 0x9766ca84ce59056cULL};
constexpr PinnedFingerprints kPinnedIoSerial{0xd21ec4f27ae1e6caULL, 0x98bddcc04c01f3faULL};

SchedConfig ConfigFor(Workload workload, int cpus) {
  SchedConfig config;
  config.num_cpus = cpus;
  if (workload == Workload::kSimIoParallel) {
    // Partitioned sharding: the configuration whose per-group schedules the
    // parallel engine reproduces exactly.
    config.shard_steal = sfs::sched::ShardStealPolicy::kNone;
    config.shard_rebalance_period = 0;
    config.shard_coupling = 0.0;
  }
  return config;
}

std::unique_ptr<Scheduler> BuildScheduler(Workload workload, const SchedConfig& config,
                                          bool traced) {
  const bool flat = workload == Workload::kSimCpuBound;
  if (traced) {
    if (flat) {
      return std::make_unique<TimedSfs>(config, /*shard=*/false);
    }
    return std::make_unique<TimedSharded>(config);
  }
  std::string error;
  auto scheduler = sfs::sched::MakeScheduler(flat ? "sfs" : "sharded-sfs", config, &error);
  if (scheduler == nullptr) {
    std::fprintf(stderr, "sfsperf: %s\n", error.c_str());
    std::abort();
  }
  return scheduler;
}

std::unique_ptr<sfs::sim::Behavior> BuildBehavior(const SimTaskSpec& spec) {
  switch (spec.kind) {
    case SimTaskSpec::Kind::kDhrystone:
      return std::make_unique<sfs::workload::Dhrystone>();
    case SimTaskSpec::Kind::kInf:
      return std::make_unique<sfs::workload::Inf>();
    case SimTaskSpec::Kind::kInteract: {
      sfs::workload::Interact::Params params;
      params.mean_think = spec.mean_think;
      params.burst = spec.burst;
      params.seed = spec.behavior_seed;
      return std::make_unique<sfs::workload::Interact>(params, nullptr);
    }
    case SimTaskSpec::Kind::kFixedWork:
      return std::make_unique<sfs::workload::FixedWork>(spec.work);
    case SimTaskSpec::Kind::kCompileJob: {
      sfs::workload::CompileJob::Params params;
      params.mean_cpu_burst = spec.burst;
      params.mean_io_block = spec.mean_think;
      params.seed = spec.behavior_seed;
      return std::make_unique<sfs::workload::CompileJob>(params);
    }
  }
  return nullptr;
}

template <typename EngineT>
void RegisterTasks(const SimInputs& inputs, bool traced, EngineT& engine) {
  engine.ReserveTasks(inputs.tasks.size() + 4);
  for (const SimTaskSpec& spec : inputs.tasks) {
    std::unique_ptr<sfs::sim::Behavior> behavior = BuildBehavior(spec);
    if (traced) {
      behavior = std::make_unique<TimedBehavior>(std::move(behavior));
    }
    auto task = std::make_unique<sfs::sim::Task>(spec.tid, spec.weight, std::move(behavior));
    if (spec.home != sfs::sched::kInvalidCpu) {
      task->set_home_cpu(spec.home);
    }
    engine.AddTaskAt(spec.arrival, std::move(task));
  }
}

void MixInterval(Fnv1a& fp, sfs::Tick start, sfs::Tick len, CpuId cpu, ThreadId tid) {
  fp.Mix(static_cast<std::uint64_t>(start));
  fp.Mix(static_cast<std::uint64_t>(len));
  fp.Mix(static_cast<std::uint64_t>(cpu));
  fp.Mix(static_cast<std::uint64_t>(tid));
}

void MixEvent(Fnv1a& fp, sfs::sim::SchedEvent event, ThreadId tid, sfs::Tick now) {
  fp.Mix(static_cast<std::uint64_t>(event));
  fp.Mix(static_cast<std::uint64_t>(tid));
  fp.Mix(static_cast<std::uint64_t>(now));
}

// Fingerprint accumulators, whole-run or per shard group.  Worker g of the
// parallel engine owns CPUs [g*p/W, (g+1)*p/W); GroupOf is the inverse map.
struct Fingerprints {
  Fingerprints(int groups, int cpus)
      : cpus(cpus),
        groups(groups),
        run(static_cast<std::size_t>(groups)),
        life(static_cast<std::size_t>(groups)) {}

  std::size_t GroupOf(CpuId cpu) const {
    return static_cast<std::size_t>(((static_cast<std::int64_t>(cpu) + 1) * groups - 1) / cpus);
  }

  int cpus;
  int groups;
  Fnv1a whole_run;
  Fnv1a whole_life;
  std::vector<Fnv1a> run;
  std::vector<Fnv1a> life;
};

void AttachHooks(sfs::sim::Engine& engine, Fingerprints& fps) {
  engine.SetRunIntervalHook([&fps](sfs::Tick start, sfs::Tick len, CpuId cpu, ThreadId tid) {
    MixInterval(fps.whole_run, start, len, cpu, tid);
    MixInterval(fps.run[fps.GroupOf(cpu)], start, len, cpu, tid);
  });
  engine.SetSchedEventHook(
      [&fps](sfs::sim::SchedEvent event, const sfs::sim::Task& task, sfs::Tick now) {
        MixEvent(fps.whole_life, event, task.tid(), now);
        const CpuId home = task.home_cpu() == sfs::sched::kInvalidCpu ? 0 : task.home_cpu();
        MixEvent(fps.life[fps.GroupOf(home)], event, task.tid(), now);
      });
}

// Under partitioning a task never leaves its home group, so each group's
// accumulators have a single writer (the worker owning the group).
void AttachHooks(sfs::sim::ParallelEngine& engine, Fingerprints& fps) {
  engine.SetRunIntervalHook(
      [&fps](int /*worker*/, sfs::Tick start, sfs::Tick len, CpuId cpu, ThreadId tid) {
        MixInterval(fps.run[fps.GroupOf(cpu)], start, len, cpu, tid);
      });
  engine.SetSchedEventHook([&fps](int /*worker*/, sfs::sim::SchedEvent event,
                                  const sfs::sim::Task& task, sfs::Tick now) {
    MixEvent(fps.life[fps.GroupOf(task.home_cpu())], event, task.tid(), now);
  });
}

double ShareRatioMin(const SimInputs& inputs,
                     const std::vector<sfs::Tick>& hog_service) {
  double service_sum = 0.0;
  double entitled_sum = 0.0;
  for (std::size_t i = 0; i < inputs.hogs.size(); ++i) {
    service_sum += static_cast<double>(hog_service[i]);
    entitled_sum += inputs.hog_entitlement[i];
  }
  if (service_sum <= 0.0) {
    return 0.0;
  }
  double ratio_min = 0.0;
  for (std::size_t i = 0; i < inputs.hogs.size(); ++i) {
    const double ratio = (static_cast<double>(hog_service[i]) / service_sum) /
                         (inputs.hog_entitlement[i] / entitled_sum);
    ratio_min = i == 0 ? ratio : std::min(ratio_min, ratio);
  }
  return ratio_min;
}

void CollectSchedulerCounters(Scheduler& scheduler, SimRepResult& r) {
  r.shard_migrations = scheduler.shard_migrations();
  auto add = [&r](const Scheduler& s) {
    if (const auto* sfs = dynamic_cast<const sfs::sched::Sfs*>(&s)) {
      r.full_refreshes += sfs->full_refreshes();
      r.refresh_repositions += sfs->refresh_repositions();
    }
  };
  if (auto* sharded = dynamic_cast<sfs::sched::ShardedScheduler*>(&scheduler)) {
    for (CpuId cpu = 0; cpu < scheduler.num_cpus(); ++cpu) {
      add(sharded->shard(cpu));
    }
  } else {
    add(scheduler);
  }
}

template <typename EngineT>
void RunAndCollect(const SimInputs& inputs, bool traced, EngineT& engine, SimRepResult& r) {
  Tracer& tracer = Tracer::Get();
  std::uint32_t root = 0;
  if (traced && tracer.span_capacity() > 0) {
    root = tracer.NewSpanId();
    tracer.set_root_span(root);
  }
  r.run_start_ns = NowNs();
  if (traced) {
    tracer.BeginEpochs(r.run_start_ns);
  }
  const std::int64_t cpu_start = ProcessCpuNs();
  engine.RunUntil(inputs.horizon);
  r.run_cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9;
  r.run_end_ns = NowNs();
  r.run_s = static_cast<double>(r.run_end_ns - r.run_start_ns) * 1e-9;
  if (root != 0) {
    ThreadAcc& acc = tracer.Local();
    acc.spans.push_back({"sim.run_until", r.run_start_ns, r.run_end_ns, root, 0, acc.thread});
  }

  r.events = engine.events_processed();
  r.dispatches = engine.dispatches();
  r.preemptions = engine.preemptions();
  r.context_switches = engine.context_switches();
  r.migrations = engine.migrations();
  r.steals = engine.steals();

  sfs::Tick service = 0;
  engine.ForEachTask(
      [&](const sfs::sim::Task& task) { service += engine.ServiceIncludingRunning(task.tid()); });
  r.service_ms = static_cast<double>(service) / static_cast<double>(sfs::kTicksPerMsec);
  r.capacity_ok = service + engine.idle_time() + engine.total_context_switch_cost() ==
                  static_cast<sfs::Tick>(inputs.cpus) * inputs.horizon;

  std::vector<sfs::Tick> hog_service;
  for (const ThreadId tid : inputs.hogs) {
    hog_service.push_back(engine.ServiceIncludingRunning(tid));
  }
  r.share_ratio_min = ShareRatioMin(inputs, hog_service);
  CollectSchedulerCounters(engine.scheduler(), r);
}

void CopyFingerprints(const Fingerprints& fps, SimRepResult& r) {
  r.schedule_fp = fps.whole_run.value();
  r.lifecycle_fp = fps.whole_life.value();
  for (std::size_t g = 0; g < fps.run.size(); ++g) {
    r.group_schedule_fps.push_back(fps.run[g].value());
    r.group_lifecycle_fps.push_back(fps.life[g].value());
  }
}

}  // namespace

int ParallelWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, std::min(4, hw == 0 ? 1 : static_cast<int>(hw)));
}

std::optional<PinnedFingerprints> PinnedFor(Workload workload) {
  switch (workload) {
    case Workload::kSimCpuBound:
      return kPinnedCpuBound;
    case Workload::kSimIoSerial:
      return kPinnedIoSerial;
    case Workload::kSimIoParallel:
    case Workload::kRuntimeMixed:
      break;
  }
  return std::nullopt;
}

SimRepResult RunSimRep(const SimRepOptions& options, std::uint64_t seed) {
  SimRepResult r;
  const std::int64_t setup_start = NowNs();

  const SimInputs inputs = options.workload == Workload::kSimCpuBound
                               ? MakeCpuBoundInputs(seed)
                               : MakeIoInputs(seed);
  const SchedConfig config = ConfigFor(options.workload, inputs.cpus);
  std::unique_ptr<Scheduler> scheduler = BuildScheduler(options.workload, config, options.traced);
  const bool parallel = options.workload == Workload::kSimIoParallel && !options.oracle;
  const int groups = options.workload == Workload::kSimIoParallel ? ParallelWorkers() : 1;
  Fingerprints fps(groups, inputs.cpus);

  if (parallel) {
    sfs::sim::ParallelEngineConfig engine_config;
    engine_config.workers = groups;
    sfs::sim::ParallelEngine engine(*scheduler, engine_config);
    if (options.fingerprints) {
      AttachHooks(engine, fps);
    }
    RegisterTasks(inputs, options.traced, engine);
    r.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

    RunAndCollect(inputs, options.traced, engine, r);
    r.epochs = engine.epochs();
    r.mailed_wakeups = engine.mailed_wakeups();
  } else {
    sfs::sim::Engine engine(*scheduler);
    if (options.fingerprints) {
      AttachHooks(engine, fps);
    }
    RegisterTasks(inputs, options.traced, engine);
    if (inputs.weight_change_period > 0) {
      engine.AddPeriodicHook(inputs.weight_change_period,
                             [&changes = inputs.weight_changes,
                              next = std::size_t{0}](sfs::sim::Engine& e) mutable {
                               if (next < changes.size()) {
                                 const WeightChange& c = changes[next++];
                                 e.scheduler().SetWeight(c.tid, c.weight);
                               }
                             });
    }
    r.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

    RunAndCollect(inputs, options.traced, engine, r);
  }
  if (options.fingerprints) {
    CopyFingerprints(fps, r);
  }
  return r;
}

}  // namespace sfsperf
