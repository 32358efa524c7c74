#include "src/eval/scenarios.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "src/common/assert.h"
#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/eval/gms.h"
#include "src/eval/heuristic_sfs.h"
#include "src/metrics/fairness.h"
#include "src/metrics/service_sampler.h"
#include "src/sched/sfs.h"
#include "src/sim/engine.h"
#include "src/sim/parallel_engine.h"
#include "src/workload/workloads.h"

namespace sfs::eval {

namespace {

using sched::SchedConfig;
using sched::SchedKind;
using sched::ThreadId;

SchedConfig BaseConfig(int cpus, Tick quantum, bool readjust) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = quantum;
  config.use_readjustment = readjust;
  return config;
}

SeriesResult CollectSeries(const metrics::ServiceSampler& sampler, std::string scheduler_name) {
  SeriesResult result;
  result.times = sampler.times();
  for (const auto& label : sampler.labels()) {
    result.series[label] = sampler.Series(label);
  }
  result.scheduler_name = std::move(scheduler_name);
  return result;
}

// Mirrors every scheduler-visible lifecycle event of `engine` into `gms`.
void MirrorIntoGms(sim::Engine& engine, GmsReference& gms) {
  engine.SetSchedEventHook([&gms](sim::SchedEvent event, const sim::Task& task, Tick now) {
    switch (event) {
      case sim::SchedEvent::kArrival:
        gms.AddThread(task.tid(), task.weight(), now);
        break;
      case sim::SchedEvent::kDeparture:
        gms.RemoveThread(task.tid(), now);
        break;
      case sim::SchedEvent::kBlock:
        gms.Block(task.tid(), now);
        break;
      case sim::SchedEvent::kWakeup:
        gms.Wakeup(task.tid(), now);
        break;
    }
  });
}

// FNV-1a over every completed run interval of `engine`: any divergence in any
// dispatch decision — order, processor, start time or length — changes the
// value.
// Counts the intervals in `*intervals` when it is not null.
void FingerprintRuns(sim::Engine& engine, common::Fnv1a& fingerprint,
                     std::int64_t* intervals = nullptr) {
  engine.SetRunIntervalHook(
      [&fingerprint, intervals](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
        if (intervals != nullptr) {
          ++*intervals;
        }
        fingerprint.MixRun(start, len, cpu, tid);
      });
}

}  // namespace

const std::vector<Tick>& SeriesResult::Of(const std::string& label) const {
  auto it = series.find(label);
  SFS_CHECK(it != series.end());
  return it->second;
}

Example1Result RunExample1(sched::SchedKind kind, bool readjust, Tick t3_arrival, Tick horizon,
                           Tick quantum) {
  auto scheduler = CreateScheduler(kind, BaseConfig(/*cpus=*/2, quantum, readjust));
  sim::Engine engine(*scheduler);

  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "T1"));
  engine.AddTaskAt(0, workload::MakeInf(2, 10.0, "T2"));
  engine.AddTaskAt(t3_arrival, workload::MakeInf(3, 1.0, "T3"));

  const Tick sample_period = std::max<Tick>(quantum, Msec(1));
  metrics::ServiceSampler sampler(engine, sample_period, {"T1", "T2", "T3"});
  engine.RunUntil(horizon);

  Example1Result result;
  result.series = CollectSeries(sampler, std::string(scheduler->name()));
  result.t1_starvation = metrics::LongestStarvation(result.series.Of("T1"), sample_period);
  return result;
}

Example2Result RunExample2(sched::SchedKind kind, int heavy_weight, int light_threads,
                           int short_weight, Tick short_len, Tick horizon) {
  auto scheduler =
      CreateScheduler(kind, BaseConfig(/*cpus=*/2, kDefaultQuantum, /*readjust=*/true));
  sim::Engine engine(*scheduler);

  ThreadId next_tid = 1;
  engine.AddTaskAt(0, workload::MakeInf(next_tid++, heavy_weight, "heavy"));
  for (int i = 0; i < light_threads; ++i) {
    engine.AddTaskAt(0, workload::MakeInf(next_tid++, 1.0, "light"));
  }

  // Back-to-back short jobs: "each short task was introduced only after the
  // previous one finished."
  engine.SetExitHook([&next_tid, short_weight, short_len](sim::Engine& e, sim::Task& task) {
    if (task.label() == "short") {
      e.AddTaskAt(e.now(), workload::MakeFixedWork(next_tid++, short_weight, short_len, "short"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, short_weight, short_len, "short"));

  metrics::ServiceSampler sampler(engine, Sec(1), {"heavy", "light", "short"});
  engine.RunUntil(horizon);

  Example2Result result;
  result.heavy_service = sampler.Series("heavy").back();
  result.light_service = sampler.Series("light").back();
  result.shorts_service = sampler.Series("short").back();
  result.shorts_to_heavy_ratio =
      static_cast<double>(result.shorts_service) / static_cast<double>(result.heavy_service);
  return result;
}

double HeuristicAccuracy(int runnable, int k, int cpus, int decisions, std::uint64_t seed) {
  SFS_CHECK(runnable > cpus);
  HeuristicSfs sfs(BaseConfig(cpus, kDefaultQuantum, /*readjust=*/true), k);
  common::Rng rng(seed);

  for (ThreadId tid = 0; tid < runnable; ++tid) {
    sfs.AddThread(tid, static_cast<double>(rng.UniformInt(1, 20)));
  }

  // Fill the processors, then cycle: release the longest-running thread with a
  // variable-length quantum, audit the next decision, dispatch.  This emulates a
  // loaded system's un-synchronized scheduling instants.
  std::vector<std::pair<ThreadId, sched::CpuId>> running;
  for (sched::CpuId cpu = 0; cpu < cpus; ++cpu) {
    const ThreadId picked = sfs.PickNext(cpu);
    SFS_CHECK(picked != sched::kInvalidThread);
    running.emplace_back(picked, cpu);
  }

  std::int64_t hits = 0;
  std::int64_t total = 0;
  for (int i = 0; i < runnable * 4 + decisions; ++i) {
    const auto [victim, cpu] = running.front();
    running.erase(running.begin());
    sfs.Charge(victim, Msec(rng.UniformInt(1, 200)));
    const bool audit = i >= runnable * 4;  // skip the tag-spreading warm-up
    if (audit) {
      const auto verdict = sfs.AuditHeuristic();
      ++total;
      if (verdict.heuristic_pick == verdict.exact_pick) {
        ++hits;
      }
    }
    const ThreadId picked = sfs.PickNext(cpu);
    SFS_CHECK(picked != sched::kInvalidThread);
    running.emplace_back(picked, cpu);
  }
  return total == 0 ? 100.0 : 100.0 * static_cast<double>(hits) / static_cast<double>(total);
}

SeriesResult RunFig4(sched::SchedKind kind, bool readjust, Tick horizon) {
  auto scheduler = CreateScheduler(kind, BaseConfig(/*cpus=*/2, kDefaultQuantum, readjust));
  sim::Engine engine(*scheduler);

  // "At t=0, we started two Inf applications (T1 and T2) with weights 1:10.  At
  // t=15s, we started a third Inf application (T3) with a weight of 1.  Task T2
  // was then stopped at t=30s."
  engine.AddTaskAt(0, workload::MakeInf(1, 1.0, "T1"));
  engine.AddTaskAt(0, workload::MakeInf(2, 10.0, "T2"));
  engine.AddTaskAt(Sec(15), workload::MakeInf(3, 1.0, "T3"));

  metrics::ServiceSampler sampler(engine, Msec(500), {"T1", "T2", "T3"});

  engine.RunUntil(Sec(30));
  engine.KillTask(2);
  engine.RunUntil(horizon);
  return CollectSeries(sampler, std::string(scheduler->name()));
}

SeriesResult RunFig5(sched::SchedKind kind, Tick horizon, Tick quantum) {
  auto scheduler = CreateScheduler(kind, BaseConfig(/*cpus=*/2, quantum,
                                                    /*readjust=*/true));
  sim::Engine engine(*scheduler);

  ThreadId next_tid = 1;
  engine.AddTaskAt(0, workload::MakeInf(next_tid++, 20.0, "T1"));
  for (int i = 0; i < 20; ++i) {
    engine.AddTaskAt(0, workload::MakeInf(next_tid++, 1.0, "T2-21"));
  }
  engine.SetExitHook([&next_tid](sim::Engine& e, sim::Task& task) {
    if (task.label() == "T_short") {
      e.AddTaskAt(e.now(), workload::MakeFixedWork(next_tid++, 5.0, Msec(300), "T_short"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, 5.0, Msec(300), "T_short"));

  metrics::ServiceSampler sampler(engine, Msec(500), {"T1", "T2-21", "T_short"});
  engine.RunUntil(horizon);
  return CollectSeries(sampler, std::string(scheduler->name()));
}

Fig6aResult RunFig6a(sched::SchedKind kind, int wa, int wb, Tick horizon) {
  auto scheduler = CreateScheduler(kind, BaseConfig(/*cpus=*/2, kDefaultQuantum,
                                                    /*readjust=*/true));
  sim::Engine engine(*scheduler);

  ThreadId next_tid = 1;
  // "20 background dhrystone processes, each with a weight of 1 ... necessary to
  // ensure that all weights were feasible at all times."
  for (int i = 0; i < 20; ++i) {
    engine.AddTaskAt(0, workload::MakeDhrystone(next_tid++, 1.0, "bg"));
  }
  const ThreadId a = next_tid++;
  const ThreadId b = next_tid++;
  engine.AddTaskAt(0, workload::MakeDhrystone(a, wa, "A"));
  engine.AddTaskAt(0, workload::MakeDhrystone(b, wb, "B"));

  engine.RunUntil(horizon);

  Fig6aResult result;
  const double secs = ToSeconds(horizon);
  result.loops_per_sec_a = static_cast<double>(engine.ServiceIncludingRunning(a)) *
                           workload::Dhrystone::kLoopsPerUsec / secs;
  result.loops_per_sec_b = static_cast<double>(engine.ServiceIncludingRunning(b)) *
                           workload::Dhrystone::kLoopsPerUsec / secs;
  result.ratio = result.loops_per_sec_b / result.loops_per_sec_a;
  return result;
}

double RunFig6b(sched::SchedKind kind, int compile_jobs, Tick horizon) {
  auto scheduler = CreateScheduler(kind, BaseConfig(/*cpus=*/2, kDefaultQuantum,
                                                    /*readjust=*/true));
  sim::Engine engine(*scheduler);

  ThreadId next_tid = 1;
  const ThreadId decoder_tid = next_tid++;
  // "The decoder was given a large weight": the readjustment algorithm caps it at
  // one full processor; the compilations share the other.
  workload::MpegDecoder::Params mpeg;
  engine.AddTaskAt(0, workload::MakeMpeg(decoder_tid, 100.0, mpeg, "mpeg"));

  for (int i = 0; i < compile_jobs; ++i) {
    workload::CompileJob::Params params;
    params.seed = 1000 + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(0, workload::MakeCompileJob(next_tid++, 1.0, params, "gcc"));
  }

  engine.RunUntil(horizon);
  auto& decoder = static_cast<workload::MpegDecoder&>(engine.task(decoder_tid).behavior());
  return static_cast<double>(decoder.frames_decoded()) / ToSeconds(horizon);
}

metrics::ResponseStats RunFig6c(sched::SchedKind kind, int disksim_jobs, Tick horizon) {
  auto scheduler = CreateScheduler(kind, BaseConfig(/*cpus=*/2, kDefaultQuantum,
                                                    /*readjust=*/true));
  sim::Engine engine(*scheduler);

  common::SampleSet responses;
  ThreadId next_tid = 1;
  workload::Interact::Params params;
  params.seed = 7;
  engine.AddTaskAt(0, workload::MakeInteract(next_tid++, 1.0, params, &responses, "interact"));
  for (int i = 0; i < disksim_jobs; ++i) {
    engine.AddTaskAt(0, workload::MakeDiskSim(next_tid++, 1.0, "disksim"));
  }

  engine.RunUntil(horizon);
  return metrics::Summarize(responses);
}

double GmsDeviationForWeights(sched::SchedKind kind, const std::vector<double>& weights, int cpus,
                              Tick horizon, Tick quantum, int fixed_point_digits,
                              bool scheduler_readjust) {
  std::vector<TimedArrival> arrivals;
  arrivals.reserve(weights.size());
  for (double w : weights) {
    arrivals.push_back({0, w});
  }
  return GmsDeviationForArrivals(kind, arrivals, cpus, horizon, quantum, fixed_point_digits,
                                 scheduler_readjust);
}

double GmsDeviationForArrivals(sched::SchedKind kind, const std::vector<TimedArrival>& arrivals,
                               int cpus, Tick horizon, Tick quantum, int fixed_point_digits,
                               bool scheduler_readjust) {
  SchedConfig config = BaseConfig(cpus, quantum, scheduler_readjust);
  config.fixed_point_digits = fixed_point_digits;
  auto scheduler = CreateScheduler(kind, config);
  sim::Engine engine(*scheduler);
  GmsReference gms(cpus);

  MirrorIntoGms(engine, gms);

  std::vector<ThreadId> tids;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto tid = static_cast<ThreadId>(i + 1);
    tids.push_back(tid);
    engine.AddTaskAt(arrivals[i].at, workload::MakeInf(tid, arrivals[i].weight, "w"));
  }
  engine.RunUntil(horizon);
  gms.AdvanceTo(horizon);

  std::vector<double> actual;
  std::vector<double> fluid;
  for (ThreadId tid : tids) {
    actual.push_back(static_cast<double>(engine.ServiceIncludingRunning(tid)));
    fluid.push_back(gms.Service(tid));
  }
  return metrics::MaxGmsDeviation(actual, fluid);
}

RunScalingResult RunScaling(int threads, int cpus, Tick horizon, std::uint64_t seed,
                            Tick quantum) {
  SFS_CHECK(threads >= 1);
  SchedConfig config = BaseConfig(cpus, quantum, /*readjust=*/true);
  sched::Sfs sfs(config);
  sim::Engine engine(sfs);
  engine.ReserveTasks(static_cast<std::size_t>(threads));

  common::Rng rng(seed);
  std::vector<double> weights(static_cast<std::size_t>(threads));
  for (double& w : weights) {
    w = static_cast<double>(rng.UniformInt(1, 20));
  }
  for (int i = 0; i < threads; ++i) {
    const auto tid = static_cast<ThreadId>(i + 1);
    engine.AddTaskAt(0, workload::MakeInf(tid, weights[static_cast<std::size_t>(i)], "w"));
  }

  // Every run here is a full quantum, so each charge completes one interval.
  RunScalingResult result;
  common::Fnv1a fingerprint;
  FingerprintRuns(engine, fingerprint, &result.charges);

  const auto wall_start = std::chrono::steady_clock::now();
  engine.RunUntil(horizon);
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();

  result.decisions = engine.dispatches();
  result.schedule_fingerprint = fingerprint.value();
  result.full_refreshes = sfs.full_refreshes();
  result.refresh_repositions = sfs.refresh_repositions();
  result.filing_probes = sfs.filing_probes();
  result.wall_ns_per_decision =
      result.decisions > 0 ? static_cast<double>(wall) / static_cast<double>(result.decisions) : 0.0;

  // The runnable set is static (all Inf threads from t=0), so one
  // readjustment pass and one integration give A_i^GMS.
  GmsReference gms(cpus);
  for (int i = 0; i < threads; ++i) {
    gms.AddThread(static_cast<ThreadId>(i + 1), weights[static_cast<std::size_t>(i)], 0);
  }
  gms.AdvanceTo(horizon);
  double max_dev = 0.0;
  for (int i = 0; i < threads; ++i) {
    const auto tid = static_cast<ThreadId>(i + 1);
    const double actual = static_cast<double>(engine.ServiceIncludingRunning(tid));
    max_dev = std::max(max_dev, std::abs(actual - gms.Service(tid)));
  }
  result.gms_deviation_ms = max_dev / 1000.0;
  return result;
}

EngineThroughputResult RunEngineThroughput(int threads, int cpus, Tick horizon,
                                           std::uint64_t seed, const ObsSinks& sinks) {
  SFS_CHECK(threads >= 1);
  SchedConfig config = BaseConfig(cpus, kDefaultQuantum, /*readjust=*/true);
  sched::Sfs sfs(config);

  sim::EngineConfig engine_config;
  engine_config.trace = sinks.trace;
  engine_config.metrics = sinks.metrics;
  sim::Engine engine(sfs, engine_config);
  engine.ReserveTasks(static_cast<std::size_t>(threads) + 4);

  common::Fnv1a run_fp;
  FingerprintRuns(engine, run_fp);
  common::Fnv1a life_fp;
  engine.SetSchedEventHook(
      [&life_fp](sim::SchedEvent event, const sim::Task& task, Tick now) {
        life_fp.MixEvent(event, task.tid(), now);
      });

  // A couple of background hogs keep every dispatch path exercised without
  // turning each wakeup into an O(p) preemption scan (idle CPUs exist).
  common::Rng rng(seed);
  const int hogs = std::min({cpus, 2, threads});
  ThreadId next_tid = 1;
  for (int i = 0; i < hogs; ++i) {
    engine.AddTaskAt(0, workload::MakeInf(next_tid++,
                                          static_cast<double>(rng.UniformInt(1, 20)), "hog"));
  }
  for (int i = hogs; i < threads; ++i) {
    workload::Interact::Params params;
    params.mean_think = Sec(2) + Msec(rng.UniformInt(0, 6000));
    params.burst = Usec(200 + 100 * rng.UniformInt(0, 6));
    params.seed = seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(next_tid));
    engine.AddTaskAt(Msec(rng.UniformInt(0, 2000)),
                     workload::MakeInteract(next_tid++, static_cast<double>(rng.UniformInt(1, 5)),
                                            params, nullptr, "sleeper"));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  engine.RunUntil(horizon);
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();

  EngineThroughputResult result;
  result.events = engine.events_processed();
  result.decisions = engine.dispatches();
  result.preemptions = engine.preemptions();
  result.schedule_fingerprint = run_fp.value();
  result.lifecycle_fingerprint = life_fp.value();
  result.wall_ns = static_cast<double>(wall);
  return result;
}

ParallelEngineThroughputResult RunParallelEngineThroughput(
    int workers, int groups, int threads, int cpus, Tick horizon, std::uint64_t seed,
    Tick epoch, const ObsSinks& sinks) {
  SFS_CHECK(threads >= 1);
  SFS_CHECK(groups >= 1 && groups <= cpus);
  SFS_CHECK(workers == 0 || workers == groups);

  SchedConfig config = BaseConfig(cpus, kDefaultQuantum, /*readjust=*/true);
  // Partitioned sharding (DESIGN.md §10): stealing, rebalancing and virtual-
  // time coupling all off, and every task home-hinted below.  This is the
  // configuration under which the parallel engine is *exact*, so per-group
  // fingerprints are comparable across worker counts and against the serial
  // oracle.
  config.shard_steal = sched::ShardStealPolicy::kNone;
  config.shard_rebalance_period = 0;
  config.shard_coupling = 0.0;
  std::string error;
  auto scheduler = sched::MakeScheduler("sharded-sfs", config, &error);
  if (scheduler == nullptr) {
    std::fprintf(stderr, "RunParallelEngineThroughput: %s\n", error.c_str());
    SFS_CHECK(scheduler != nullptr);
  }

  // Worker g owns CPUs [(g*cpus)/groups, ((g+1)*cpus)/groups) — this is the
  // inverse map, matching ParallelEngine's split exactly.
  auto group_of_cpu = [groups, cpus](std::int64_t cpu) {
    return static_cast<std::size_t>(((cpu + 1) * groups - 1) / cpus);
  };

  std::vector<common::Fnv1a> run_fps(static_cast<std::size_t>(groups));
  std::vector<common::Fnv1a> life_fps(static_cast<std::size_t>(groups));

  // The RunEngineThroughput recipe (same seed stream, same tids, same
  // parameters) with one addition: a home hint pinning each task to shard
  // tid % cpus, which keeps the workload partitioned.
  common::Rng rng(seed);
  const int hogs = std::min({cpus, 2, threads});
  std::vector<std::pair<Tick, std::unique_ptr<sim::Task>>> arrivals;
  arrivals.reserve(static_cast<std::size_t>(threads));
  ThreadId next_tid = 1;
  for (int i = 0; i < hogs; ++i) {
    arrivals.emplace_back(0, workload::MakeInf(next_tid++,
                                               static_cast<double>(rng.UniformInt(1, 20)),
                                               "hog"));
  }
  for (int i = hogs; i < threads; ++i) {
    workload::Interact::Params params;
    params.mean_think = Sec(2) + Msec(rng.UniformInt(0, 6000));
    params.burst = Usec(200 + 100 * rng.UniformInt(0, 6));
    params.seed = seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(next_tid));
    arrivals.emplace_back(Msec(rng.UniformInt(0, 2000)),
                          workload::MakeInteract(next_tid++,
                                                 static_cast<double>(rng.UniformInt(1, 5)),
                                                 params, nullptr, "sleeper"));
  }
  for (auto& [at, task] : arrivals) {
    task->set_home_cpu(static_cast<sched::CpuId>(task->tid() % cpus));
  }

  ParallelEngineThroughputResult result;
  result.group_schedule_fingerprints.resize(static_cast<std::size_t>(groups));
  result.group_lifecycle_fingerprints.resize(static_cast<std::size_t>(groups));

  if (workers == 0) {
    // Serial oracle: sim::Engine over the identical scheduler and workload,
    // splitting the fingerprint streams by group after the fact.  Run
    // intervals key on the CPU they happened on; lifecycle events key on the
    // task's home hint (where the partitioned scheduler placed it).
    sim::EngineConfig engine_config;
    engine_config.trace = sinks.trace;
    engine_config.metrics = sinks.metrics;
    sim::Engine engine(*scheduler, engine_config);
    engine.ReserveTasks(static_cast<std::size_t>(threads) + 4);
    engine.SetRunIntervalHook(
        [&run_fps, group_of_cpu](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
          common::Fnv1a& fp = run_fps[group_of_cpu(cpu)];
          fp.MixRun(start, len, cpu, tid);
        });
    engine.SetSchedEventHook(
        [&life_fps, group_of_cpu](sim::SchedEvent event, const sim::Task& task, Tick now) {
          common::Fnv1a& fp = life_fps[group_of_cpu(task.home_cpu())];
          fp.MixEvent(event, task.tid(), now);
        });
    for (auto& [at, task] : arrivals) {
      engine.AddTaskAt(at, std::move(task));
    }
    const auto wall_start = std::chrono::steady_clock::now();
    engine.RunUntil(horizon);
    result.wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    result.events = engine.events_processed();
    result.decisions = engine.dispatches();
    result.preemptions = engine.preemptions();
  } else {
    sim::ParallelEngineConfig engine_config;
    engine_config.workers = workers;
    engine_config.epoch = epoch;
    engine_config.trace = sinks.trace;
    engine_config.metrics = sinks.metrics;
    sim::ParallelEngine engine(*scheduler, engine_config);
    engine.ReserveTasks(static_cast<std::size_t>(threads) + 4);
    // Under partitioning the hook's worker id equals the group key (tasks
    // never leave their home group), so indexing by group is single-writer
    // per Fnv1a accumulator — no locks needed.
    engine.SetRunIntervalHook(
        [&run_fps, group_of_cpu](int /*worker*/, Tick start, Tick len, sched::CpuId cpu,
                                 ThreadId tid) {
          common::Fnv1a& fp = run_fps[group_of_cpu(cpu)];
          fp.MixRun(start, len, cpu, tid);
        });
    engine.SetSchedEventHook(
        [&life_fps, group_of_cpu](int /*worker*/, sim::SchedEvent event,
                                  const sim::Task& task, Tick now) {
          common::Fnv1a& fp = life_fps[group_of_cpu(task.home_cpu())];
          fp.MixEvent(event, task.tid(), now);
        });
    for (auto& [at, task] : arrivals) {
      engine.AddTaskAt(at, std::move(task));
    }
    const auto wall_start = std::chrono::steady_clock::now();
    engine.RunUntil(horizon);
    result.wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    result.events = engine.events_processed();
    result.decisions = engine.dispatches();
    result.preemptions = engine.preemptions();
    result.mailed_wakeups = engine.mailed_wakeups();
    result.epochs = engine.epochs();
  }

  for (int g = 0; g < groups; ++g) {
    result.group_schedule_fingerprints[static_cast<std::size_t>(g)] =
        run_fps[static_cast<std::size_t>(g)].value();
    result.group_lifecycle_fingerprints[static_cast<std::size_t>(g)] =
        life_fps[static_cast<std::size_t>(g)].value();
  }
  return result;
}

ShardedFairnessResult RunShardedFairness(std::string_view policy,
                                         const sched::SchedConfig& config, int threads,
                                         Tick horizon, std::uint64_t seed,
                                         const ObsSinks& sinks) {
  SFS_CHECK(threads >= 1);
  std::string error;
  auto scheduler = sched::MakeScheduler(policy, config, &error);
  if (scheduler == nullptr) {
    std::fprintf(stderr, "RunShardedFairness: %s\n", error.c_str());
    SFS_CHECK(scheduler != nullptr);
  }
  sim::EngineConfig engine_config;
  engine_config.trace = sinks.trace;
  engine_config.metrics = sinks.metrics;
  sim::Engine engine(*scheduler, engine_config);
  engine.ReserveTasks(static_cast<std::size_t>(threads));
  GmsReference gms(config.num_cpus);

  MirrorIntoGms(engine, gms);

  common::Fnv1a fingerprint;
  FingerprintRuns(engine, fingerprint);

  common::Rng rng(seed);
  std::vector<double> weights(static_cast<std::size_t>(threads));
  double weight_sum = 0.0;
  for (double& w : weights) {
    w = static_cast<double>(rng.UniformInt(1, 20));
    weight_sum += w;
  }

  // Roles: every 8th thread up to a cap is an interactive sleeper, every 4th
  // a terminator (exits after a fraction of its fair-share service — the GMS
  // mirror walks every runnable thread on each event, O(t) per event, so the
  // event-generating bands are capped while the hog population scales with
  // `threads`).  The rest are hogs.
  const int sleeper_cap = std::min(threads / 8, 16);
  std::vector<ThreadId> hogs;
  int sleepers = 0;
  for (int i = 0; i < threads; ++i) {
    const auto tid = static_cast<ThreadId>(i + 1);
    const double w = weights[static_cast<std::size_t>(i)];
    if (i % 8 == 5 && sleepers < sleeper_cap) {
      ++sleepers;
      workload::Interact::Params params;
      params.mean_think = Msec(200 + 50 * static_cast<Tick>(rng.UniformInt(0, 4)));
      params.burst = Msec(5 + static_cast<Tick>(rng.UniformInt(0, 15)));
      params.seed = seed ^ static_cast<std::uint64_t>(tid);
      engine.AddTaskAt(0, workload::MakeInteract(tid, w, params, nullptr, "sleeper"));
    } else if (i % 4 == 2) {
      // Fair share over the horizon is ~ p * w / W; exit after roughly a
      // third of it so the departure lands mid-run.
      const double fair = static_cast<double>(config.num_cpus) * w / weight_sum *
                          static_cast<double>(horizon);
      const Tick work = std::max<Tick>(config.quantum, static_cast<Tick>(fair / 3.0));
      engine.AddTaskAt(0, workload::MakeFixedWork(tid, w, work, "terminator"));
    } else {
      hogs.push_back(tid);
      engine.AddTaskAt(0, workload::MakeInf(tid, w, "hog"));
    }
  }

  // A seeded batch of hogs is killed at a third of the horizon ("terminated
  // threads"), draining whatever shards they lived on.
  const std::size_t kill_count = std::min<std::size_t>(hogs.size() / 4, 32);
  const std::vector<ThreadId> kills(hogs.begin(),
                                    hogs.begin() + static_cast<std::ptrdiff_t>(kill_count));
  std::vector<ThreadId> survivors(hogs.begin() + static_cast<std::ptrdiff_t>(kill_count),
                                  hogs.end());
  engine.AddPeriodicHook(horizon / 3, [&kills, done = false](sim::Engine& e) mutable {
    if (done) {
      return;
    }
    done = true;
    for (const ThreadId tid : kills) {
      e.KillTask(tid);
    }
  });

  const auto wall_start = std::chrono::steady_clock::now();
  engine.RunUntil(horizon);
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  gms.AdvanceTo(horizon);

  ShardedFairnessResult result;
  result.decisions = engine.dispatches();
  result.schedule_fingerprint = fingerprint.value();
  result.steals = scheduler->steals();
  result.shard_migrations = scheduler->shard_migrations();
  result.engine_migrations = engine.migrations();
  result.wall_ns_per_decision =
      result.decisions > 0 ? static_cast<double>(wall) / static_cast<double>(result.decisions)
                           : 0.0;

  std::vector<double> actual;
  std::vector<double> fluid;
  for (const ThreadId tid : survivors) {
    actual.push_back(static_cast<double>(engine.ServiceIncludingRunning(tid)));
    fluid.push_back(gms.Service(tid));
  }
  result.gms_deviation_ms = metrics::MaxGmsDeviation(actual, fluid) / 1000.0;
  return result;
}

}  // namespace sfs::eval
