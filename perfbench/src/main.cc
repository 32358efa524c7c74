// sfsperf: the repository benchmark's measuring program.
//
//   sfsperf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//           [--spans-out PATH]
//
// Runs one workload for about S seconds of repetitions, checks every
// repetition's outputs, prints each metric by name with its unit, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones, from untraced runs of the
// stock schedulers; with --trace 1 they are the per-layer ones, from runs
// that alternate untraced and traced repetitions.  GLOSSARY.md next to this
// directory defines every metric.  perfbench/run.py builds and drives this
// program; it is not meant to be run bare.

#include <algorithm>
#include <array>
#include <iterator>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/inputs.h"
#include "src/runtime_mixed.h"
#include "src/sim_workloads.h"
#include "src/stats.h"
#include "src/timing.h"

namespace sfsperf {
namespace {

constexpr int kBenchVersion = 2;
constexpr int kMinReps = 3;
constexpr std::size_t kSpanCapacity = 16384;  // per thread
constexpr int kRuntimeExtraSetups = 8;

struct Args {
  Workload workload = Workload::kSimCpuBound;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: sfsperf --workload sim_cpu_bound|sim_io_serial|sim_io_parallel|"
               "runtime_mixed [--seed N] [--seconds S] [--trace 0|1] [--spans-out PATH]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) {
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') {
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(args->seconds > 0.0) || args->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

class Checks {
 public:
  void Expect(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what);
    }
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::printf("note: %s was not finite; reported as 0\n", name);
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
    std::printf("metric %-36s %.6g %s\n", name, value, unit);
  }

  void PrintResult(const Checks& checks) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                checks.failed() == 0 ? "true" : "false",
                static_cast<long long>(checks.attempted()),
                static_cast<long long>(checks.failed()));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name, metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

// Every per-layer metric, in report order.  A workload that does not run a
// layer reports its metrics as 0 (GLOSSARY.md says which layers each
// workload runs), except the parallel engine's, which only sim_io_parallel
// reports: that workload is not in BENCHMARK.json (GLOSSARY.md says why).
struct MetricDef {
  const char* name;
  const char* unit;
  bool parallel_only = false;
};
constexpr MetricDef kLayerMetrics[] = {
    {"sched.pick.calls", "count"},
    {"sched.pick.ns_mean", "ns"},
    {"sched.charge.ns_mean", "ns"},
    {"sched.admit.ns_mean", "ns"},
    {"sched.remove.ns_mean", "ns"},
    {"sched.set_weight.ns_mean", "ns"},
    {"sched.refresh_repositions_per_refresh", "ratio"},
    {"sched.wakeup.ns_mean", "ns"},
    {"sched.block.ns_mean", "ns"},
    {"sched.suggest_preempt.ns_mean", "ns"},
    {"sched.shard_pick.ns_mean", "ns"},
    {"sched.steal_overhead_ns_mean", "ns"},
    {"sched.steals", "count"},
    {"sched.shard_migrations", "count"},
    {"sched.busy_frac", "frac"},
    {"workload.next.calls", "count"},
    {"workload.next.ns_mean", "ns"},
    {"workload.busy_frac", "frac"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.self_frac", "frac"},
    {"sim.events", "count"},
    {"sim.dispatches", "count"},
    {"sim.preemptions", "count"},
    {"sim.context_switches", "count"},
    {"sim.migrations", "count"},
    {"par.epochs", "count", true},
    {"par.mailed_wakeups", "count", true},
    {"par.events_per_epoch", "count", true},
    {"par.epoch_ns_p50", "ns", true},
    {"par.epoch_ns_p99", "ns", true},
    {"par.worker_busy_frac_min", "frac", true},
    {"par.worker_busy_frac_max", "frac", true},
    {"par.barrier_tail_ns_mean", "ns", true},
    {"rt.dispatch_ns_p50", "ns"},
    {"rt.dispatch_ns_p99", "ns"},
    {"rt.lock_wait_ns_mean", "ns"},
    {"rt.grant_overhead_frac", "frac"},
    {"rt.wake_apply_us_p50", "us"},
    {"rt.wake_apply_us_p99", "us"},
    {"rt.wake_to_dispatch_us_p50", "us"},
    {"rt.wake_to_dispatch_us_p99", "us"},
    {"rt.preempt_latency_us_p50", "us"},
    {"rt.preempt_latency_us_p99", "us"},
    {"rt.kicks_per_wakeup", "ratio"},
    {"rt.dispatches", "count"},
    {"rt.wakeups", "count"},
    {"rt.preemptions", "count"},
    {"rt.resume_delay_p50_us", "us"},
    {"rt.resume_delay_p99_us", "us"},
    {"rt.resume_samples", "count"},
    {"trace.overhead_frac", "frac"},
};

class LayerValues {
 public:
  void Set(std::string_view name, double value) {
    for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      if (name == kLayerMetrics[i].name) {
        values_[i] = value;
        return;
      }
    }
    std::fprintf(stderr, "sfsperf: unknown per-layer metric %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }

  void Emit(Report& report, bool parallel) const {
    for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      if (parallel || !kLayerMetrics[i].parallel_only) {
        report.Add(kLayerMetrics[i].name, values_[i], kLayerMetrics[i].unit);
      }
    }
  }

 private:
  std::array<double, std::size(kLayerMetrics)> values_{};
};

// The process's resident high-water mark (VmHWM).  getrusage's ru_maxrss is
// not used: Linux carries the pre-exec parent's peak into it.  peak_rss_mb is
// read after the first timed repetition, before the run's own sample vectors
// grow with the number of repetitions.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Prints a latency distribution's median and highest supported percentile
// with its sample count; returns false when p99 lacks 10 samples beyond it.
bool PrintLatency(const char* name, const std::vector<double>& samples) {
  const auto tail = HighestSupportedPercentile(samples);
  std::printf("latency %s: samples=%zu p50=%.3f", name, samples.size(),
              Percentile(samples, 50.0));
  if (tail) {
    std::printf(" p%g=%.3f (%zu beyond)\n", tail->percentile, tail->value, tail->beyond);
  } else {
    std::printf(" (no percentile has 10 samples beyond it)\n");
  }
  return tail && tail->percentile >= 99.0;
}

// --- per-layer aggregation ----------------------------------------------------

struct LayerTotals {
  std::array<OpStat, kOpCount> ops{};
  int reps = 0;
  double run_ns = 0.0;     // sum of RunUntil / Run walls
  double thread_ns = 0.0;  // run_ns x threads that carry the layers
  std::int64_t events = 0;
  std::vector<double> epoch_ns;
  double tail_ns = 0.0;
  std::int64_t tail_samples = 0;
  std::vector<double> busy_min;
  std::vector<double> busy_max;

  void AddThreads(double wall_ns, int threads) {
    ++reps;
    run_ns += wall_ns;
    thread_ns += wall_ns * threads;
    const Tracer& tracer = Tracer::Get();
    double lo = 1.0;
    double hi = 0.0;
    bool any = false;
    for (const ThreadAcc* acc : tracer.Threads()) {
      for (std::size_t i = 0; i < kOpCount; ++i) {
        ops[i].calls += acc->ops[i].calls;
        ops[i].ns += acc->ops[i].ns;
      }
      if (acc->epoch_samples > 0) {
        tail_ns += static_cast<double>(acc->epoch_tail_ns);
        tail_samples += acc->epoch_samples;
        const double busy = Ratio(static_cast<double>(acc->epoch_busy_ns),
                                  static_cast<double>(acc->epoch_busy_ns + acc->epoch_tail_ns));
        lo = std::min(lo, busy);
        hi = std::max(hi, busy);
        any = true;
      }
    }
    if (any) {
      busy_min.push_back(lo);
      busy_max.push_back(hi);
    }
  }

  double SumNs(bool (*pred)(Op)) const {
    double total = 0.0;
    for (std::size_t i = 0; i < kOpCount; ++i) {
      if (pred(static_cast<Op>(i))) {
        total += static_cast<double>(ops[i].ns);
      }
    }
    return total;
  }

  double Calls(Op op) const { return static_cast<double>(ops[static_cast<std::size_t>(op)].calls); }
  double Ns(Op op) const { return static_cast<double>(ops[static_cast<std::size_t>(op)].ns); }
  double NsMean(Op op) const { return Ratio(Ns(op), Calls(op)); }
  double PerRep(double total) const { return Ratio(total, reps); }
};

// Writes the spans every thread kept in the current tracer generation.
void WriteSpans(const Args& args) {
  if (args.spans_out.empty()) {
    return;
  }
  std::vector<Span> spans;
  std::int64_t dropped = 0;
  for (const ThreadAcc* acc : Tracer::Get().Threads()) {
    spans.insert(spans.end(), acc->spans.begin(), acc->spans.end());
    dropped += acc->spans_dropped;
  }
  if (WriteTraceEvents(args.spans_out, spans)) {
    std::printf("spans: %zu sampled spans written to %s (%lld dropped at capacity)\n",
                spans.size(), args.spans_out.c_str(), static_cast<long long>(dropped));
  } else {
    std::printf("spans: could not write %s\n", args.spans_out.c_str());
  }
}

// The sched and workload per-layer metrics, common to every workload.
void SetSchedMetrics(LayerValues& v, const LayerTotals& t, double refresh_ratio,
                     double steals_per_rep, double migrations_per_rep) {
  v.Set("sched.pick.calls", t.PerRep(t.Calls(Op::kPick)));
  v.Set("sched.pick.ns_mean", t.NsMean(Op::kPick));
  v.Set("sched.charge.ns_mean", t.NsMean(Op::kCharge));
  v.Set("sched.admit.ns_mean", t.NsMean(Op::kAdmit));
  v.Set("sched.remove.ns_mean", t.NsMean(Op::kRemove));
  v.Set("sched.set_weight.ns_mean", t.NsMean(Op::kSetWeight));
  v.Set("sched.refresh_repositions_per_refresh", refresh_ratio);
  v.Set("sched.wakeup.ns_mean", t.NsMean(Op::kWakeup));
  v.Set("sched.block.ns_mean", t.NsMean(Op::kBlock));
  v.Set("sched.suggest_preempt.ns_mean", t.NsMean(Op::kSuggest));
  v.Set("sched.shard_pick.ns_mean", t.NsMean(Op::kShardPick));
  // Outer pick minus the shard's own pick: steal, rebalance and migration.
  if (t.Calls(Op::kShardPick) > 0) {
    v.Set("sched.steal_overhead_ns_mean",
          Ratio(t.Ns(Op::kPick) - t.Ns(Op::kShardPick), t.Calls(Op::kPick)));
  }
  v.Set("sched.steals", steals_per_rep);
  v.Set("sched.shard_migrations", migrations_per_rep);
  v.Set("sched.busy_frac", Ratio(t.SumNs(IsOuterSchedOp), t.thread_ns));
  v.Set("workload.next.calls", t.PerRep(t.Calls(Op::kNext)));
  v.Set("workload.next.ns_mean", t.NsMean(Op::kNext));
  v.Set("workload.busy_frac", Ratio(t.SumNs(IsWorkloadOp), t.thread_ns));
}

// --- simulator workloads ------------------------------------------------------

bool SameCounters(const SimRepResult& a, const SimRepResult& b) {
  return a.events == b.events && a.dispatches == b.dispatches &&
         a.preemptions == b.preemptions && a.context_switches == b.context_switches &&
         a.migrations == b.migrations && a.steals == b.steals;
}

bool SameFingerprints(const SimRepResult& a, const SimRepResult& b) {
  return a.schedule_fp == b.schedule_fp && a.lifecycle_fp == b.lifecycle_fp &&
         a.group_schedule_fps == b.group_schedule_fps &&
         a.group_lifecycle_fps == b.group_lifecycle_fps;
}

void RunSim(const Args& args, Checks& checks, Report& report) {
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  const Workload workload = args.workload;
  const bool parallel = workload == Workload::kSimIoParallel;
  const int threads = parallel ? ParallelWorkers() : 1;

  // Check repetition: fingerprinted, and the reference every later
  // repetition's counters must repeat.
  SimRepOptions check_options{.workload = workload, .fingerprints = true};
  const SimRepResult check = RunSimRep(check_options, args.seed);
  std::vector<double> setups = {check.setup_s};
  if (parallel) {
    for (std::size_t g = 0; g < check.group_schedule_fps.size(); ++g) {
      std::printf("fingerprints group %zu: schedule=%s lifecycle=%s\n", g,
                  sfs::common::FingerprintHex(check.group_schedule_fps[g]).c_str(),
                  sfs::common::FingerprintHex(check.group_lifecycle_fps[g]).c_str());
    }
  } else {
    std::printf("fingerprints: schedule=%s lifecycle=%s\n",
                sfs::common::FingerprintHex(check.schedule_fp).c_str(),
                sfs::common::FingerprintHex(check.lifecycle_fp).c_str());
  }
  checks.Expect(check.capacity_ok, "service + idle + switch cost == p x horizon");
  checks.Expect(check.share_ratio_min > 0.0, "every hog received CPU");
  if (const auto pinned = PinnedFor(workload); pinned && args.seed == kDefaultSeed) {
    checks.Expect(check.schedule_fp == pinned->schedule && check.lifecycle_fp == pinned->lifecycle,
                  "default-seed fingerprints equal the pinned ones");
  }
  if (parallel) {
    SimRepOptions oracle_options = check_options;
    oracle_options.oracle = true;
    const SimRepResult oracle = RunSimRep(oracle_options, args.seed);
    std::printf("parallel engine: workers=%d groups=%zu\n", threads,
                check.group_schedule_fps.size());
    checks.Expect(oracle.group_schedule_fps == check.group_schedule_fps &&
                      oracle.group_lifecycle_fps == check.group_lifecycle_fps,
                  "per-group fingerprints equal the serial sim::Engine oracle");
    checks.Expect(oracle.capacity_ok, "oracle: service + idle + switch cost == p x horizon");
  }

  const SimRepOptions untraced{.workload = workload};
  auto timed_rep = [&](const SimRepOptions& options, const char* what) {
    SimRepResult r = RunSimRep(options, args.seed);
    checks.Expect(SameCounters(r, check) && r.capacity_ok, what);
    return r;
  };

  if (!args.trace) {
    std::vector<double> events_per_s;
    std::vector<double> cpu_ns_per_event;
    std::vector<double> work_per_cpu_s;
    double peak_rss_mb = 0.0;
    for (int rep = 0; rep < kMinReps || NowNs() < deadline; ++rep) {
      const SimRepResult r = timed_rep(untraced, "repetition repeats the check repetition");
      if (rep == 0) {
        peak_rss_mb = PeakRssMb();
      }
      setups.push_back(r.setup_s);
      events_per_s.push_back(static_cast<double>(r.events) / r.run_s);
      cpu_ns_per_event.push_back(r.run_cpu_s * 1e9 / static_cast<double>(r.events));
      work_per_cpu_s.push_back(r.service_ms / r.run_cpu_s);
    }
    std::printf("repetitions: %zu timed, %lld events each; cpu_ns_per_event:",
                cpu_ns_per_event.size(), static_cast<long long>(check.events));
    for (const double x : cpu_ns_per_event) {
      std::printf(" %.0f", x);
    }
    std::printf("\nmedians (not metrics): cpu_ns_per_event %.1f, wall events_per_s %.0f\n",
                Median(cpu_ns_per_event), Median(events_per_s));
    report.Add("setup_s", Median(setups), "s");
    report.Add("work_units_per_cpu_s", Median(work_per_cpu_s), "1/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("share_ratio_min", check.share_ratio_min, "ratio");
    return;
  }

  // Traced check repetition (also the one whose spans are kept).
  Tracer& tracer = Tracer::Get();
  tracer.Reset(args.spans_out.empty() ? 0 : kSpanCapacity);
  SimRepOptions traced_check = check_options;
  traced_check.traced = true;
  const SimRepResult tcheck = RunSimRep(traced_check, args.seed);
  checks.Expect(SameFingerprints(tcheck, check) && SameCounters(tcheck, check),
                "traced fingerprints equal the untraced ones");
  WriteSpans(args);

  SimRepOptions traced = untraced;
  traced.traced = true;
  LayerTotals totals;
  std::vector<double> untraced_eps;
  std::vector<double> traced_eps;
  SimRepResult last;
  for (int rep = 0; rep < kMinReps || NowNs() < deadline; ++rep) {
    const SimRepResult u = timed_rep(untraced, "repetition repeats the check repetition");
    untraced_eps.push_back(static_cast<double>(u.events) / u.run_cpu_s);
    tracer.Reset(0);
    last = timed_rep(traced, "traced repetition repeats the check repetition");
    traced_eps.push_back(static_cast<double>(last.events) / last.run_cpu_s);
    totals.AddThreads(static_cast<double>(last.run_end_ns - last.run_start_ns), threads);
    totals.events += last.events;
    const auto& stamps = tracer.epoch_stamps();
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      totals.epoch_ns.push_back(
          static_cast<double>(stamps[i] - (i == 0 ? last.run_start_ns : stamps[i - 1])));
    }
  }

  const double sched_ns = totals.SumNs(IsOuterSchedOp);
  const double workload_ns = totals.SumNs(IsWorkloadOp);
  const double self_ns = totals.thread_ns - sched_ns - workload_ns;
  std::printf(
      "accounting (traced, %d reps, %d thread(s)): RunUntil %.3f ms x threads = "
      "sched %.3f + workload %.3f + engine self %.3f ms\n",
      totals.reps, threads, totals.run_ns * 1e-6, sched_ns * 1e-6, workload_ns * 1e-6,
      self_ns * 1e-6);
  checks.Expect(self_ns >= 0.0, "sched + workload time fits inside RunUntil x threads");

  LayerValues v;
  SetSchedMetrics(v, totals,
                  Ratio(static_cast<double>(last.refresh_repositions),
                        static_cast<double>(last.full_refreshes)),
                  static_cast<double>(last.steals), static_cast<double>(last.shard_migrations));
  v.Set("sim.self_ns_per_event", Ratio(self_ns, static_cast<double>(totals.events)));
  v.Set("sim.self_frac", Ratio(self_ns, totals.thread_ns));
  v.Set("sim.events", static_cast<double>(last.events));
  v.Set("sim.dispatches", static_cast<double>(last.dispatches));
  v.Set("sim.preemptions", static_cast<double>(last.preemptions));
  v.Set("sim.context_switches", static_cast<double>(last.context_switches));
  v.Set("sim.migrations", static_cast<double>(last.migrations));
  if (parallel) {
    v.Set("par.epochs", static_cast<double>(last.epochs));
    v.Set("par.mailed_wakeups", static_cast<double>(last.mailed_wakeups));
    v.Set("par.events_per_epoch",
          Ratio(static_cast<double>(last.events), static_cast<double>(last.epochs)));
    v.Set("par.epoch_ns_p50", Percentile(totals.epoch_ns, 50.0));
    v.Set("par.epoch_ns_p99", Percentile(totals.epoch_ns, 99.0));
    v.Set("par.worker_busy_frac_min", Median(totals.busy_min));
    v.Set("par.worker_busy_frac_max", Median(totals.busy_max));
    v.Set("par.barrier_tail_ns_mean",
          Ratio(totals.tail_ns, static_cast<double>(totals.tail_samples)));
  }
  v.Set("trace.overhead_frac", 1.0 - Ratio(Median(traced_eps), Median(untraced_eps)));
  v.Emit(report, parallel);
}

// --- runtime workload -----------------------------------------------------------

struct RuntimeTotals {
  std::vector<double> setups;
  std::vector<double> events_per_s;
  std::vector<double> units_per_s;
  std::vector<double> cpu_ns_per_event;
  std::vector<double> units_per_cpu_s;
  std::vector<double> share_ratio;
  std::vector<double> resume_us;
  std::vector<double> preempt_us;
  sfs::obs::HistogramSnapshot dispatch_ns;
  sfs::obs::HistogramSnapshot lock_wait_ns;
  sfs::obs::HistogramSnapshot wake_apply_ns;
  sfs::obs::HistogramSnapshot wake_to_dispatch_ns;
  double wall_s = 0.0;
  double work_ns = 0.0;
  std::int64_t dispatches = 0;
  std::int64_t wakeups = 0;
  std::int64_t preemptions = 0;
  std::int64_t kicks = 0;
  std::int64_t steals = 0;
  std::int64_t shard_migrations = 0;
  int reps = 0;

  void Add(const RuntimeRepResult& r) {
    ++reps;
    setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
    events_per_s.push_back(static_cast<double>(r.dispatches + r.wakeups) / r.wall_s);
    units_per_s.push_back(static_cast<double>(r.work_units) / r.wall_s);
    // The runtime's own CPU per scheduling event: everything the process
    // burned during Run except the work functions.
    cpu_ns_per_event.push_back((r.cpu_s * 1e9 - r.work_cpu_ns) /
                               static_cast<double>(r.dispatches + r.wakeups));
    units_per_cpu_s.push_back(static_cast<double>(r.work_units) / r.cpu_s);
    share_ratio.push_back(r.share_ratio_min);
    resume_us.insert(resume_us.end(), r.resume_us.begin(), r.resume_us.end());
    preempt_us.insert(preempt_us.end(), r.preempt_latency_us.begin(), r.preempt_latency_us.end());
    dispatch_ns = MergeHistograms(dispatch_ns, r.dispatch_ns);
    lock_wait_ns = MergeHistograms(lock_wait_ns, r.lock_wait_ns);
    wake_apply_ns = MergeHistograms(wake_apply_ns, r.wake_apply_ns);
    wake_to_dispatch_ns = MergeHistograms(wake_to_dispatch_ns, r.wake_to_dispatch_ns);
    wall_s += r.wall_s;
    work_ns += r.work_ns;
    dispatches += r.dispatches;
    wakeups += r.wakeups;
    preemptions += r.preemptions;
    kicks += r.kicks;
    steals += r.steals;
    shard_migrations += r.shard_migrations;
  }
};

void CheckRuntimeRep(const RuntimeRepResult& r, Checks& checks) {
  checks.Expect(r.every_task_ran, "every runtime task got CPU");
  checks.Expect(r.every_block_resumed, "every Block resumed");
  checks.Expect(r.cpu_within_capacity, "sum of CpuTime <= p x wall");
}

void RunRuntime(const Args& args, Checks& checks, Report& report) {
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  const RuntimeInputs inputs = MakeRuntimeInputs(args.seed);
  const int cpus = inputs.cpus;
  RuntimeTotals untraced;

  if (!args.trace) {
    double peak_rss_mb = 0.0;
    for (int rep = 0; rep < 2 || NowNs() < deadline; ++rep) {
      const RuntimeRepResult r = RunRuntimeRep(args.seed, false, kRuntimeExtraSetups);
      if (rep == 0) {
        peak_rss_mb = PeakRssMb();
      }
      CheckRuntimeRep(r, checks);
      untraced.Add(r);
    }
    std::printf("repetitions: %d of %.3f s wall\n", untraced.reps,
                sfs::ToSeconds(inputs.rep_wall));
    checks.Expect(PrintLatency("resume_delay_us", untraced.resume_us),
                  "resume delay p99 has at least 10 samples beyond it");
    std::printf(
        "medians (not metrics): cpu_ns_per_event %.1f, wall events_per_s %.1f, "
        "wall work_units_per_s %.1f\n",
        Median(untraced.cpu_ns_per_event), Median(untraced.events_per_s),
        Median(untraced.units_per_s));
    report.Add("setup_s", Median(untraced.setups), "s");
    report.Add("work_units_per_cpu_s", Median(untraced.units_per_cpu_s), "1/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("share_ratio_min", Median(untraced.share_ratio), "ratio");
    return;
  }

  Tracer& tracer = Tracer::Get();
  RuntimeTotals traced;
  LayerTotals layers;
  for (int rep = 0; rep < 2 || NowNs() < deadline; ++rep) {
    const RuntimeRepResult u = RunRuntimeRep(args.seed, false, 0);
    CheckRuntimeRep(u, checks);
    untraced.Add(u);
    // The first traced repetition keeps its spans.
    tracer.Reset(rep == 0 && !args.spans_out.empty() ? kSpanCapacity : 0);
    const RuntimeRepResult t = RunRuntimeRep(args.seed, true, 0);
    CheckRuntimeRep(t, checks);
    traced.Add(t);
    layers.AddThreads(t.wall_s * 1e9, cpus);
    if (rep == 0) {
      WriteSpans(args);
    }
  }
  checks.Expect(PrintLatency("resume_delay_us", untraced.resume_us),
                "resume delay p99 has at least 10 samples beyond it");
  PrintLatency("resume_delay_us (traced)", traced.resume_us);

  LayerValues v;
  SetSchedMetrics(v, layers, 0.0, Ratio(static_cast<double>(traced.steals), traced.reps),
                  Ratio(static_cast<double>(traced.shard_migrations), traced.reps));
  // The executor's own histograms and counters, from the untraced runs.
  const double reps = untraced.reps;
  v.Set("rt.dispatch_ns_p50", untraced.dispatch_ns.Percentile(50.0));
  v.Set("rt.dispatch_ns_p99", untraced.dispatch_ns.Percentile(99.0));
  v.Set("rt.lock_wait_ns_mean", untraced.lock_wait_ns.mean());
  v.Set("rt.grant_overhead_frac", 1.0 - Ratio(untraced.work_ns * 1e-9, cpus * untraced.wall_s));
  v.Set("rt.wake_apply_us_p50", untraced.wake_apply_ns.Percentile(50.0) / 1000.0);
  v.Set("rt.wake_apply_us_p99", untraced.wake_apply_ns.Percentile(99.0) / 1000.0);
  v.Set("rt.wake_to_dispatch_us_p50", untraced.wake_to_dispatch_ns.Percentile(50.0) / 1000.0);
  v.Set("rt.wake_to_dispatch_us_p99", untraced.wake_to_dispatch_ns.Percentile(99.0) / 1000.0);
  v.Set("rt.preempt_latency_us_p50", Percentile(untraced.preempt_us, 50.0));
  v.Set("rt.preempt_latency_us_p99", Percentile(untraced.preempt_us, 99.0));
  v.Set("rt.kicks_per_wakeup",
        Ratio(static_cast<double>(untraced.kicks), static_cast<double>(untraced.wakeups)));
  v.Set("rt.dispatches", Ratio(static_cast<double>(untraced.dispatches), reps));
  v.Set("rt.wakeups", Ratio(static_cast<double>(untraced.wakeups), reps));
  v.Set("rt.preemptions", Ratio(static_cast<double>(untraced.preemptions), reps));
  v.Set("rt.resume_delay_p50_us", Percentile(untraced.resume_us, 50.0));
  v.Set("rt.resume_delay_p99_us", Percentile(untraced.resume_us, 99.0));
  v.Set("rt.resume_samples", static_cast<double>(untraced.resume_us.size()));
  v.Set("trace.overhead_frac",
        1.0 - Ratio(Median(traced.units_per_cpu_s), Median(untraced.units_per_cpu_s)));
  v.Emit(report, false);
}

}  // namespace
}  // namespace sfsperf

int main(int argc, char** argv) {
  using namespace sfsperf;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  std::printf(
      "build {\"compiler\": \"%s\", \"build_type\": \"%s\", \"bench_version\": %d, "
      "\"workload\": \"%s\", \"seed\": %llu, \"default_seed\": %llu, \"held_out_seed\": %llu}\n",
      SFSPERF_COMPILER, SFSPERF_BUILD_TYPE, kBenchVersion,
      std::string(WorkloadName(args.workload)).c_str(),
      static_cast<unsigned long long>(args.seed), static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(kHeldOutSeed));
  Checks checks;
  Report report;
  if (args.workload == Workload::kRuntimeMixed) {
    RunRuntime(args, checks, report);
  } else {
    RunSim(args, checks, report);
  }
  std::printf("checks: attempted=%lld failed=%lld failed_frac=%.6g\n",
              static_cast<long long>(checks.attempted()), static_cast<long long>(checks.failed()),
              Ratio(static_cast<double>(checks.failed()), static_cast<double>(checks.attempted())));
  report.PrintResult(checks);
  std::fflush(stdout);
  return 0;
}
