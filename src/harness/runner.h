// Experiment runner and reporting surface for the sfs_bench binary.
//
// The runner executes registry experiments selected by --filter, honoring each
// spec's warmup/repetition policy, and assembles one schema-versioned JSON
// document (json_writer.h) across all runs.  Determinism contract: everything
// recorded through Metric()/Set()/Counters() must be a pure function of
// --seed, so same-seed reruns are byte-identical; wall-clock measurements go
// through Timing(), which reaches the JSON only under --timing (off by
// default) precisely because it breaks that contract.

#ifndef SFS_HARNESS_RUNNER_H_
#define SFS_HARNESS_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/json_writer.h"
#include "src/harness/registry.h"
#include "src/obs/metrics.h"

namespace sfs::sim {
class Engine;
}  // namespace sfs::sim

namespace sfs::harness {

// JSON schema version; bump when the document layout changes incompatibly.
inline constexpr int kJsonSchemaVersion = 1;

// Handed to each experiment execution: experiments write human-readable output
// to out() and machine-readable results through the recording methods.
class Reporter {
 public:
  Reporter(std::ostream& human_out, std::uint64_t seed, int repetition, bool timing_enabled,
           std::string trace_path = {});

  // Human-readable stream (tables, banners).  Never parsed; may interleave
  // freely with other experiments' output.
  std::ostream& out() { return human_out_; }

  // Base RNG seed for this run (--seed).  Experiments derive any per-trial
  // seeds from this value so that --seed fully determines the JSON document.
  std::uint64_t seed() const { return seed_; }

  // 0-based measured-repetition index (warmup runs use -1 and are discarded).
  int repetition() const { return repetition_; }

  bool timing_enabled() const { return timing_enabled_; }

  // --trace destination, or empty when tracing is off.  Tracing-capable
  // experiments export a Perfetto JSON here on repetition 0; intended to be
  // combined with --filter so exactly one experiment owns the file.  The path
  // never enters the JSON document, so a traced run's document is
  // byte-identical to an untraced one.
  const std::string& trace_path() const { return trace_path_; }

  // --- deterministic results (always in the JSON) -----------------------------
  void Metric(std::string_view key, double value);
  void Metric(std::string_view key, std::int64_t value);
  void Metric(std::string_view key, int value) { Metric(key, static_cast<std::int64_t>(value)); }
  void Metric(std::string_view key, std::string_view value);
  void Set(std::string_view key, JsonValue value);

  // Records the engine's counters (dispatches, context switches, preemptions,
  // migrations, idle and switch-cost ticks) under `key`; all deterministic.
  void Counters(std::string_view key, const sim::Engine& engine);

  // Serializes a histogram snapshot as {count, mean, min, max, p50, p99, p999}
  // under `key`.  Use for SIM-TIME histograms only (quantum lengths,
  // run-interval lengths): their contents are a pure function of --seed, so
  // they belong in the deterministic section.
  void Histogram(std::string_view key, const obs::HistogramSnapshot& snapshot);

  // As Histogram, but under "timing" (dropped without --timing).  Use for
  // wall-clock histograms: dispatch latency, lock wait, preempt latency.
  void TimingHistogram(std::string_view key, const obs::HistogramSnapshot& snapshot);

  // --- wall-clock results (JSON only with --timing) ---------------------------
  // `nanos_per_op` (or any wall-derived number) is recorded under
  // "timing"/`key` when timing is enabled and discarded otherwise.
  void Timing(std::string_view key, double value);

  // Event-loop throughput: records `<key>/ns_per_event` and
  // `<key>/events_per_sec` under "timing" from a count of processed events and
  // the wall-clock nanoseconds the run took.  The count itself is
  // deterministic and belongs in a Metric/Counters record; only the rates are
  // wall-derived, hence timing-gated.
  void Throughput(std::string_view key, std::int64_t events, double wall_ns);

  // The accumulated result object for this repetition.
  JsonValue TakeResult();

 private:
  // Shared {count, mean, min, max, p50, p99, p999} object builder.
  static JsonValue HistogramJson(const obs::HistogramSnapshot& snapshot);

  std::ostream& human_out_;
  std::uint64_t seed_;
  int repetition_;
  bool timing_enabled_;
  std::string trace_path_;
  JsonValue result_ = JsonValue::Object();
};

struct RunOptions {
  bool list = false;
  std::string filter;          // substring match on experiment names
  int repeat = 0;              // > 0 overrides each spec's repetitions
  std::uint64_t seed = 42;
  bool timing = false;         // include wall-clock numbers in the JSON
  std::string json_path;       // --json <path>: write the document here
  std::string trace_path;      // --trace <path>: Perfetto trace destination
  bool help = false;
};

// Parses sfs_bench flags (--list, --filter, --repeat, --seed, --timing,
// --json, --trace, --help).  Returns false (with a message on `err`) on bad
// usage.
bool ParseRunOptions(int argc, char** argv, RunOptions& options, std::ostream& err);

// One message per `schedulers` entry of `experiments` that
// sched::ParseSchedKind rejects, naming the experiment and the name; empty
// when every name parses.
std::vector<std::string> UnknownSchedulerErrors(
    const std::vector<const Experiment*>& experiments);

// Runs the selected experiments and (optionally) writes the JSON document.
// Returns a process exit code: 0 on success, 1 when the filter matches
// nothing or any registered experiment lists an unknown scheduler name
// (checked before listing or running), 2 on usage errors.
int RunBenchMain(int argc, char** argv);

// Builds the full document for the given options without touching the
// filesystem; exposed for the harness tests.
JsonValue RunExperimentsToJson(const RunOptions& options, std::ostream& human_out);

// --- microbenchmark helpers ---------------------------------------------------
// Replacement for the google-benchmark loops the overhead experiments
// (Figure 7, Table 1, ablation cost sweeps) were written against: calibrate the
// iteration count until the timed region exceeds `min_time`, then report
// nanoseconds per operation.  Wall-clock by nature — report via
// Reporter::Timing only.

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

template <typename Fn>
double MeasureNsPerOp(Fn&& fn, std::chrono::nanoseconds min_time = std::chrono::milliseconds(20)) {
  using Clock = std::chrono::steady_clock;
  for (std::int64_t iters = 64;; iters *= 4) {
    const auto start = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
      fn();
    }
    const auto elapsed = Clock::now() - start;
    if (elapsed >= min_time || iters >= (std::int64_t{1} << 40)) {
      return static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
             static_cast<double>(iters);
    }
  }
}

}  // namespace sfs::harness

#endif  // SFS_HARNESS_RUNNER_H_
