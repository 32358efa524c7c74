#include "src/harness/runner.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/assert.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"

namespace sfs::harness {

Reporter::Reporter(std::ostream& human_out, std::uint64_t seed, int repetition,
                   bool timing_enabled, std::string trace_path)
    : human_out_(human_out),
      seed_(seed),
      repetition_(repetition),
      timing_enabled_(timing_enabled),
      trace_path_(std::move(trace_path)) {}

void Reporter::Metric(std::string_view key, double value) {
  result_.Set(std::string(key), JsonValue(value));
}

void Reporter::Metric(std::string_view key, std::int64_t value) {
  result_.Set(std::string(key), JsonValue(value));
}

void Reporter::Metric(std::string_view key, std::string_view value) {
  result_.Set(std::string(key), JsonValue(value));
}

void Reporter::Set(std::string_view key, JsonValue value) {
  result_.Set(std::string(key), std::move(value));
}

void Reporter::Counters(std::string_view key, const sim::Engine& engine) {
  JsonValue counters = JsonValue::Object();
  counters.Set("events", JsonValue(engine.events_processed()));
  counters.Set("dispatches", JsonValue(engine.dispatches()));
  counters.Set("context_switches", JsonValue(engine.context_switches()));
  counters.Set("preemptions", JsonValue(engine.preemptions()));
  counters.Set("migrations", JsonValue(engine.migrations()));
  counters.Set("steals", JsonValue(engine.steals()));
  counters.Set("idle_ticks", JsonValue(engine.idle_time()));
  counters.Set("context_switch_cost_ticks", JsonValue(engine.total_context_switch_cost()));
  result_.Set(std::string(key), std::move(counters));
}

JsonValue Reporter::HistogramJson(const obs::HistogramSnapshot& snapshot) {
  JsonValue h = JsonValue::Object();
  h.Set("count", JsonValue(static_cast<std::int64_t>(snapshot.count())));
  h.Set("mean", JsonValue(snapshot.mean()));
  h.Set("min", JsonValue(snapshot.min()));
  h.Set("max", JsonValue(snapshot.max()));
  h.Set("p50", JsonValue(snapshot.Percentile(50)));
  h.Set("p99", JsonValue(snapshot.Percentile(99)));
  h.Set("p999", JsonValue(snapshot.Percentile(99.9)));
  return h;
}

void Reporter::Histogram(std::string_view key, const obs::HistogramSnapshot& snapshot) {
  result_.Set(std::string(key), HistogramJson(snapshot));
}

void Reporter::TimingHistogram(std::string_view key,
                               const obs::HistogramSnapshot& snapshot) {
  if (!timing_enabled_) {
    return;
  }
  JsonValue* timing = result_.Find("timing");
  if (timing == nullptr) {
    timing = &result_.Set("timing", JsonValue::Object());
  }
  timing->Set(std::string(key), HistogramJson(snapshot));
}

void Reporter::Timing(std::string_view key, double value) {
  if (!timing_enabled_) {
    return;
  }
  JsonValue* timing = result_.Find("timing");
  if (timing == nullptr) {
    timing = &result_.Set("timing", JsonValue::Object());
  }
  timing->Set(std::string(key), JsonValue(value));
}

void Reporter::Throughput(std::string_view key, std::int64_t events, double wall_ns) {
  if (!timing_enabled_ || events <= 0) {
    return;
  }
  const std::string prefix(key);
  Timing(prefix + "/ns_per_event", wall_ns / static_cast<double>(events));
  Timing(prefix + "/events_per_sec",
         static_cast<double>(events) / (wall_ns * 1e-9));
}

JsonValue Reporter::TakeResult() {
  JsonValue out = std::move(result_);
  result_ = JsonValue::Object();
  return out;
}

namespace {

bool ParseUint64(std::string_view s, std::uint64_t& out) {
  const auto result = std::from_chars(s.data(), s.data() + s.size(), out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size();
}

bool ParseInt(std::string_view s, int& out) {
  const auto result = std::from_chars(s.data(), s.data() + s.size(), out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size();
}

constexpr std::string_view kUsage =
    "usage: sfs_bench [options]\n"
    "  --list             list registered experiments and exit\n"
    "  --filter SUBSTR    run only experiments whose name contains SUBSTR\n"
    "  --repeat N         override every experiment's repetition count\n"
    "  --seed S           base RNG seed (default 42); same seed => same JSON\n"
    "  --json PATH        write the schema-versioned JSON document to PATH\n"
    "  --timing           include wall-clock measurements in the JSON\n"
    "                     (non-deterministic; off by default)\n"
    "  --trace PATH       write a Perfetto (chrome trace-event) JSON to PATH;\n"
    "                     honored by tracing-capable experiments on their first\n"
    "                     repetition — combine with --filter.  Never affects\n"
    "                     the --json document\n"
    "  --help             show this message\n";

}  // namespace

bool ParseRunOptions(int argc, char** argv, RunOptions& options, std::ostream& err) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    bool has_inline_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    const auto take_value = [&](std::string_view flag) -> bool {
      if (has_inline_value) {
        return true;
      }
      if (i + 1 >= argc) {
        err << "sfs_bench: " << flag << " requires a value\n";
        return false;
      }
      value = argv[++i];
      return true;
    };
    const auto reject_value = [&](std::string_view flag) -> bool {
      if (has_inline_value) {
        err << "sfs_bench: " << flag << " does not take a value\n";
        return false;
      }
      return true;
    };
    if (arg == "--list") {
      if (!reject_value(arg)) {
        return false;
      }
      options.list = true;
    } else if (arg == "--timing") {
      if (!reject_value(arg)) {
        return false;
      }
      options.timing = true;
    } else if (arg == "--help" || arg == "-h") {
      if (!reject_value(arg)) {
        return false;
      }
      options.help = true;
    } else if (arg == "--filter") {
      if (!take_value(arg)) {
        return false;
      }
      options.filter = value;
    } else if (arg == "--json") {
      if (!take_value(arg)) {
        return false;
      }
      options.json_path = value;
    } else if (arg == "--trace") {
      if (!take_value(arg)) {
        return false;
      }
      options.trace_path = value;
    } else if (arg == "--repeat") {
      if (!take_value(arg)) {
        return false;
      }
      if (!ParseInt(value, options.repeat) || options.repeat <= 0) {
        err << "sfs_bench: --repeat expects a positive integer\n";
        return false;
      }
    } else if (arg == "--seed") {
      if (!take_value(arg)) {
        return false;
      }
      if (!ParseUint64(value, options.seed)) {
        err << "sfs_bench: --seed expects an unsigned integer\n";
        return false;
      }
    } else {
      err << "sfs_bench: unknown option '" << arg << "'\n" << kUsage;
      return false;
    }
  }
  return true;
}

JsonValue RunExperimentsToJson(const RunOptions& options, std::ostream& human_out) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue("sfs-bench"));
  doc.Set("schema_version", JsonValue(kJsonSchemaVersion));
  doc.Set("seed", JsonValue(options.seed));
  doc.Set("filter", JsonValue(options.filter));
  doc.Set("timing_included", JsonValue(options.timing));
  JsonValue experiments = JsonValue::Array();

  for (const Experiment* experiment : Registry::Instance().Match(options.filter)) {
    const ExperimentSpec& spec = experiment->spec;
    const int repetitions = options.repeat > 0 ? options.repeat : spec.repetitions;

    human_out << "### " << spec.name << " — " << spec.description << "\n";

    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue(spec.name));
    entry.Set("description", JsonValue(spec.description));
    JsonValue schedulers = JsonValue::Array();
    for (const std::string& s : spec.schedulers) {
      schedulers.Push(JsonValue(s));
    }
    entry.Set("schedulers", std::move(schedulers));
    entry.Set("deterministic", JsonValue(spec.deterministic));
    entry.Set("warmup", JsonValue(std::int64_t{spec.warmup}));
    entry.Set("repetitions", JsonValue(std::int64_t{repetitions}));

    // Warmup output is discarded along with its results, so the measured
    // tables are not preceded by identical-looking throwaway ones.
    for (int w = 0; w < spec.warmup; ++w) {
      std::ostream null_out(nullptr);
      Reporter warm(null_out, options.seed, /*repetition=*/-1, /*timing_enabled=*/false);
      experiment->fn(warm);
    }

    JsonValue runs = JsonValue::Array();
    for (int rep = 0; rep < repetitions; ++rep) {
      Reporter reporter(human_out, options.seed, rep, options.timing, options.trace_path);
      const auto start = std::chrono::steady_clock::now();
      experiment->fn(reporter);
      const auto elapsed = std::chrono::steady_clock::now() - start;
      JsonValue result = reporter.TakeResult();
      if (options.timing) {
        result.Set("wall_ms",
                   JsonValue(std::chrono::duration<double, std::milli>(elapsed).count()));
      }
      runs.Push(std::move(result));
    }
    // Best-of-reps digest: with --timing and several repetitions, fold every
    // scalar timing key across the runs into {best, mean} so consumers get
    // the noise-robust minimum (what bench/compare_bench.py gates on)
    // alongside the mean without re-deriving either from the per-run arrays.
    if (options.timing && repetitions > 1) {
      struct Agg {
        std::string key;
        double best;
        double sum;
        int count;
      };
      std::vector<Agg> aggs;
      for (const JsonValue& run : runs.array_items()) {
        const JsonValue* timing = run.Find("timing");
        if (timing == nullptr || !timing->is_object()) {
          continue;
        }
        for (const auto& [key, value] : timing->object_items()) {
          if (!value.is_number()) {
            continue;  // histograms already carry their own summary
          }
          const double v = value.AsDouble();
          const auto it = std::find_if(aggs.begin(), aggs.end(),
                                       [&](const Agg& a) { return a.key == key; });
          if (it == aggs.end()) {
            aggs.push_back({key, v, v, 1});
          } else {
            it->best = std::min(it->best, v);
            it->sum += v;
            ++it->count;
          }
        }
      }
      if (!aggs.empty()) {
        JsonValue summary = JsonValue::Object();
        for (const Agg& a : aggs) {
          JsonValue cell = JsonValue::Object();
          cell.Set("best", JsonValue(a.best));
          cell.Set("mean", JsonValue(a.sum / a.count));
          summary.Set(a.key, std::move(cell));
        }
        entry.Set("timing_summary", std::move(summary));
      }
    }
    entry.Set("runs", std::move(runs));
    experiments.Push(std::move(entry));
    human_out << "\n";
  }
  doc.Set("experiments", std::move(experiments));
  return doc;
}

std::vector<std::string> UnknownSchedulerErrors(
    const std::vector<const Experiment*>& experiments) {
  std::vector<std::string> errors;
  for (const Experiment* experiment : experiments) {
    for (const std::string& name : experiment->spec.schedulers) {
      if (!sched::ParseSchedKind(name).has_value()) {
        errors.push_back("experiment " + experiment->spec.name + " lists unknown scheduler \"" +
                         name + "\"");
      }
    }
  }
  return errors;
}

int RunBenchMain(int argc, char** argv) {
  RunOptions options;
  if (!ParseRunOptions(argc, argv, options, std::cerr)) {
    return 2;
  }
  if (options.help) {
    std::cout << kUsage;
    return 0;
  }
  const std::vector<std::string> unknown = UnknownSchedulerErrors(Registry::Instance().Match(""));
  if (!unknown.empty()) {
    for (const std::string& error : unknown) {
      std::cerr << "sfs_bench: " << error << "\n";
    }
    std::cerr << "sfs_bench: known policies: " << sched::KnownSchedKindNames() << "\n";
    return 1;
  }
  if (options.list) {
    for (const Experiment* experiment : Registry::Instance().Match(options.filter)) {
      std::cout << experiment->spec.name << "  " << experiment->spec.description << "\n";
    }
    return 0;
  }
  const auto selected = Registry::Instance().Match(options.filter);
  if (selected.empty()) {
    std::cerr << "sfs_bench: no experiment matches filter '" << options.filter << "'\n";
    return 1;
  }

  // Open the output file before the (potentially long) run so a bad path
  // fails fast instead of after minutes of experiments.
  std::ofstream out;
  if (!options.json_path.empty()) {
    out.open(options.json_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "sfs_bench: cannot open '" << options.json_path << "' for writing\n";
      return 1;
    }
  }

  JsonValue doc = RunExperimentsToJson(options, std::cout);

  if (!options.json_path.empty()) {
    doc.Write(out);
    out << "\n";
    if (!out.good()) {
      std::cerr << "sfs_bench: error writing '" << options.json_path << "'\n";
      return 1;
    }
    std::cout << "wrote " << options.json_path << " (" << selected.size() << " experiment"
              << (selected.size() == 1 ? "" : "s") << ")\n";
  }
  return 0;
}

}  // namespace sfs::harness
