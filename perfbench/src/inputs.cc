#include "src/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "src/common/rng.h"

namespace sfsperf {

using sfs::Msec;
using sfs::Sec;
using sfs::Usec;
using sfs::common::Rng;
using sfs::sched::ThreadId;

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Distinct generator streams per workload from one seed.
Rng StreamFor(std::uint64_t seed, std::uint64_t salt) { return Rng(seed * kGolden ^ salt); }

// Heavy-tailed weight: Pareto(x_m = 1, alpha = 1.5) at quantile u, floored to
// an integer and capped so that no generated thread is infeasible by accident.
double ParetoWeight(double u, double cap) {
  return std::min(cap, std::floor(1.0 / std::pow(1.0 - u, 1.0 / 1.5)));
}

// `n` stratified Pareto weights in seeded order: one draw per quantile
// stratum, so every seed gets the same weight distribution (and comparable
// per-event cost) while the values and their assignment still vary.
std::vector<double> StratifiedWeights(Rng& rng, int n, double cap) {
  std::vector<double> weights;
  weights.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    weights.push_back(ParetoWeight((i + rng.UniformDouble()) / n, cap));
  }
  for (std::size_t i = weights.size(); i > 1; --i) {
    std::swap(weights[i - 1], weights[rng.NextBounded(i)]);
  }
  return weights;
}

// `count` short FixedWork jobs arriving over [0, horizon), one per stratum of
// the horizon (a seeded, evenly loaded arrival stream).
void AddShortJobs(Rng& rng, int count, Tick min_work, Tick max_work, Tick horizon, int cpus,
                  bool home_hint, ThreadId* next_tid, std::vector<SimTaskSpec>* tasks) {
  for (int i = 0; i < count; ++i) {
    SimTaskSpec job;
    job.kind = SimTaskSpec::Kind::kFixedWork;
    job.tid = (*next_tid)++;
    job.weight = static_cast<double>(rng.UniformInt(1, 4));
    job.arrival = static_cast<Tick>((i + rng.UniformDouble()) / count *
                                    static_cast<double>(horizon));
    job.work = rng.UniformInt(min_work, max_work);
    if (home_hint) {
      job.home = job.tid % cpus;
    }
    tasks->push_back(job);
  }
}

void Put(std::string* out, const char* key, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%lld\n", key, static_cast<long long>(v));
  *out += buf;
}

// Doubles as their exact bit pattern, so equal strings mean equal inputs.
void Put(std::string* out, const char* key, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%016llx\n", key, static_cast<unsigned long long>(bits));
  *out += buf;
}

}  // namespace

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSimCpuBound:
      return "sim_cpu_bound";
    case Workload::kSimIoSerial:
      return "sim_io_serial";
    case Workload::kSimIoParallel:
      return "sim_io_parallel";
    case Workload::kRuntimeMixed:
      return "runtime_mixed";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload w : {Workload::kSimCpuBound, Workload::kSimIoSerial,
                           Workload::kSimIoParallel, Workload::kRuntimeMixed}) {
    if (WorkloadName(w) == name) {
      return w;
    }
  }
  return std::nullopt;
}

std::string SimInputs::Serialize() const {
  std::string out;
  Put(&out, "cpus", std::int64_t{cpus});
  Put(&out, "horizon", horizon);
  for (const SimTaskSpec& t : tasks) {
    Put(&out, "kind", static_cast<std::int64_t>(t.kind));
    Put(&out, "tid", std::int64_t{t.tid});
    Put(&out, "weight", t.weight);
    Put(&out, "arrival", t.arrival);
    Put(&out, "home", std::int64_t{t.home});
    Put(&out, "work", t.work);
    Put(&out, "mean_think", t.mean_think);
    Put(&out, "burst", t.burst);
    Put(&out, "behavior_seed", static_cast<std::int64_t>(t.behavior_seed));
  }
  Put(&out, "weight_change_period", weight_change_period);
  for (const WeightChange& c : weight_changes) {
    Put(&out, "change_tid", std::int64_t{c.tid});
    Put(&out, "change_weight", c.weight);
  }
  for (std::size_t i = 0; i < hogs.size(); ++i) {
    Put(&out, "hog", std::int64_t{hogs[i]});
    Put(&out, "entitlement", hog_entitlement[i]);
  }
  return out;
}

SimInputs MakeCpuBoundInputs(std::uint64_t seed) {
  Rng rng = StreamFor(seed, 0xc9b0);
  SimInputs in;
  in.cpus = 16;
  in.horizon = Sec(600);

  constexpr int kBase = 1000;
  constexpr int kInfeasible = 3;
  constexpr int kHogs = 8;
  ThreadId next_tid = 1;
  double base_sum = 0.0;
  const std::vector<double> weights = StratifiedWeights(rng, kBase, 100.0);
  for (int i = 0; i < kBase; ++i) {
    SimTaskSpec t;
    t.kind = SimTaskSpec::Kind::kDhrystone;
    t.tid = next_tid++;
    t.weight = weights[static_cast<std::size_t>(i)];
    base_sum += t.weight;
    in.tasks.push_back(t);
  }
  // Each infeasible weight exceeds 10% of the base sum, while the capacity
  // threshold sum(w)/p stays below 9% of it: readjustment must cap all three.
  for (int i = 0; i < kInfeasible; ++i) {
    SimTaskSpec t;
    t.kind = SimTaskSpec::Kind::kDhrystone;
    t.tid = next_tid++;
    t.weight = std::round(base_sum * rng.UniformDouble(0.10, 0.16));
    in.tasks.push_back(t);
  }

  // share_ratio_min watches the heaviest base threads, whose weights never
  // change: feasible threads keep phi = w under readjustment, so their CPU
  // shares among themselves are entitled in proportion to w.
  std::vector<int> order(kBase);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return in.tasks[static_cast<std::size_t>(a)].weight >
           in.tasks[static_cast<std::size_t>(b)].weight;
  });
  std::vector<bool> is_hog(kBase, false);
  for (int k = 0; k < kHogs; ++k) {
    const SimTaskSpec& t = in.tasks[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])];
    in.hogs.push_back(t.tid);
    in.hog_entitlement.push_back(t.weight);
    is_hog[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = true;
  }

  AddShortJobs(rng, /*count=*/1200, Msec(20), Msec(300), in.horizon, in.cpus,
               /*home_hint=*/false, &next_tid, &in.tasks);

  in.weight_change_period = Msec(100);
  const int changes = static_cast<int>(in.horizon / in.weight_change_period);
  const std::vector<double> new_weights = StratifiedWeights(rng, changes, 100.0);
  for (const double w : new_weights) {
    std::size_t idx = 0;
    do {
      idx = static_cast<std::size_t>(rng.UniformInt(0, kBase - 1));
    } while (is_hog[idx]);
    in.weight_changes.push_back({in.tasks[idx].tid, w});
  }
  return in;
}

SimInputs MakeIoInputs(std::uint64_t seed) {
  Rng rng = StreamFor(seed, 0x10b0);
  SimInputs in;
  in.cpus = 64;
  in.horizon = Sec(10);

  constexpr int kHogs = 48;
  constexpr int kCompileJobs = 16;
  constexpr int kSleepers = 9800;
  ThreadId next_tid = 1;
  for (int i = 0; i < kHogs; ++i) {
    SimTaskSpec t;
    t.kind = SimTaskSpec::Kind::kInf;
    t.tid = next_tid++;
    t.weight = static_cast<double>(rng.UniformInt(1, 4));
    t.home = t.tid % in.cpus;
    in.tasks.push_back(t);
    // Fewer always-runnable threads than CPUs: each is entitled to a whole
    // processor whatever its weight (the readjusted weights are equal).
    in.hogs.push_back(t.tid);
    in.hog_entitlement.push_back(1.0);
  }
  for (int i = 0; i < kCompileJobs; ++i) {
    SimTaskSpec t;
    t.kind = SimTaskSpec::Kind::kCompileJob;
    t.tid = next_tid++;
    t.weight = static_cast<double>(rng.UniformInt(1, 4));
    t.home = t.tid % in.cpus;
    t.burst = Msec(20);
    t.mean_think = Msec(20);
    t.behavior_seed = seed ^ (kGolden * static_cast<std::uint64_t>(t.tid));
    in.tasks.push_back(t);
  }
  for (int i = 0; i < kSleepers; ++i) {
    SimTaskSpec t;
    t.kind = SimTaskSpec::Kind::kInteract;
    t.tid = next_tid++;
    t.weight = static_cast<double>(rng.UniformInt(1, 5));
    t.arrival = Msec(rng.UniformInt(0, 2000));
    t.home = t.tid % in.cpus;
    t.mean_think = Msec(rng.UniformInt(1000, 5000));
    t.burst = Usec(100 * rng.UniformInt(1, 9));
    t.behavior_seed = seed ^ (kGolden * static_cast<std::uint64_t>(t.tid));
    in.tasks.push_back(t);
  }
  AddShortJobs(rng, /*count=*/200, Msec(1), Msec(50), in.horizon, in.cpus,
               /*home_hint=*/true, &next_tid, &in.tasks);
  return in;
}

std::string RuntimeInputs::Serialize() const {
  std::string out;
  Put(&out, "cpus", std::int64_t{cpus});
  Put(&out, "rep_wall", rep_wall);
  for (std::size_t i = 0; i < hog_weights.size(); ++i) {
    Put(&out, "hog_weight", hog_weights[i]);
    Put(&out, "entitlement", hog_entitlement[i]);
  }
  for (const auto& durations : block_durations) {
    Put(&out, "blocker", static_cast<std::int64_t>(durations.size()));
    for (const Tick d : durations) {
      Put(&out, "d", d);
    }
  }
  return out;
}

RuntimeInputs MakeRuntimeInputs(std::uint64_t seed) {
  Rng rng = StreamFor(seed, 0x7e57);
  RuntimeInputs in;
  in.cpus = 2;
  in.rep_wall = Sec(1);
  in.hog_weights = {1.0, 3.0};
  // Weight 3 of 4 asks for 3/4 of two CPUs, more than one processor:
  // readjustment caps it, so each hog is entitled to one CPU.
  in.hog_entitlement = {1.0, 1.0};
  constexpr int kBlockers = 4;
  constexpr int kDurations = 2048;
  in.block_durations.resize(kBlockers);
  for (auto& durations : in.block_durations) {
    durations.reserve(kDurations);
    for (int i = 0; i < kDurations; ++i) {
      durations.push_back(rng.UniformInt(Msec(1), Msec(5)));
    }
  }
  return in;
}

}  // namespace sfsperf
