#include "src/harness/runner.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/registry.h"
#include "src/obs/metrics.h"

namespace sfs::harness {
namespace {

// A deterministic seed-sensitive experiment: the JSON it produces must be a
// pure function of --seed.
SFS_EXPERIMENT(run_det, .description = "seed-driven deterministic experiment",
               .schedulers = {"sfs"}) {
  common::Rng rng(reporter.seed());
  std::int64_t sum = 0;
  for (int i = 0; i < 100; ++i) {
    sum += rng.UniformInt(0, 1000);
  }
  reporter.Metric("sum", sum);
  reporter.Metric("seed", static_cast<std::int64_t>(reporter.seed()));
  reporter.out() << "human text, not part of the JSON\n";
}

// A wall-clock experiment: its timing numbers must stay out of the JSON
// unless --timing is given.
SFS_EXPERIMENT(run_timed, .description = "wall-clock experiment",
               .schedulers = {"sfs"}, .repetitions = 2, .warmup = 1,
               .deterministic = false) {
  volatile int sink = 0;
  const double ns = MeasureNsPerOp([&] { sink = sink + 1; },
                                   std::chrono::microseconds(50));
  reporter.Timing("ns_per_op", ns);
  reporter.Metric("ops", std::int64_t{1});
}

// Exercises the histogram reporting surface: a deterministic sim-time
// histogram plus a wall-clock one that must stay timing-gated.
SFS_EXPERIMENT(run_hist, .description = "histogram reporting experiment",
               .schedulers = {"sfs"}) {
  obs::LogHistogram hist(1);
  for (std::int64_t v = 1; v <= 100; ++v) {
    hist.Record(0, v);
  }
  reporter.Histogram("quantum_ticks", hist.Snapshot());
  reporter.TimingHistogram("dispatch_ns", hist.Snapshot());
  // Tracing-capable experiments write a sidecar file here; the path must
  // never reach the JSON document (asserted by TracePathNeverEntersTheJson).
  if (!reporter.trace_path().empty() && reporter.repetition() == 0) {
    reporter.out() << "(would write " << reporter.trace_path() << ")\n";
  }
}

std::string RunToString(const RunOptions& options) {
  std::ostringstream human;
  JsonValue doc = RunExperimentsToJson(options, human);
  std::ostringstream out;
  doc.Write(out);
  out << "\n";
  return out.str();
}

TEST(RunnerTest, SameSeedProducesByteIdenticalJson) {
  RunOptions options;
  options.filter = "run_det";
  options.seed = 12345;
  const std::string a = RunToString(options);
  const std::string b = RunToString(options);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema_version\": 1"), std::string::npos);
}

TEST(RunnerTest, DifferentSeedChangesTheDocument) {
  RunOptions options;
  options.filter = "run_det";
  options.seed = 1;
  const std::string a = RunToString(options);
  options.seed = 2;
  const std::string b = RunToString(options);
  EXPECT_NE(a, b);
}

TEST(RunnerTest, FilterSelectsMatchingExperimentsOnly) {
  RunOptions options;
  options.filter = "run_";
  std::ostringstream human;
  JsonValue doc = RunExperimentsToJson(options, human);
  const JsonValue* experiments = doc.Find("experiments");
  ASSERT_NE(experiments, nullptr);
  EXPECT_EQ(experiments->size(), 3u);

  options.filter = "run_det";
  JsonValue one = RunExperimentsToJson(options, human);
  EXPECT_EQ(one.Find("experiments")->size(), 1u);

  options.filter = "no_match_at_all";
  JsonValue none = RunExperimentsToJson(options, human);
  EXPECT_EQ(none.Find("experiments")->size(), 0u);
}

TEST(RunnerTest, TimingExcludedByDefaultIncludedOnRequest) {
  RunOptions options;
  options.filter = "run_timed";
  const std::string without = RunToString(options);
  EXPECT_EQ(without.find("ns_per_op"), std::string::npos);
  EXPECT_EQ(without.find("wall_ms"), std::string::npos);

  options.timing = true;
  const std::string with = RunToString(options);
  EXPECT_NE(with.find("ns_per_op"), std::string::npos);
  EXPECT_NE(with.find("wall_ms"), std::string::npos);
}

TEST(RunnerTest, RepeatOverrideControlsRunCount) {
  RunOptions options;
  options.filter = "run_det";
  options.repeat = 3;
  std::ostringstream human;
  JsonValue doc = RunExperimentsToJson(options, human);
  const JsonValue* experiments = doc.Find("experiments");
  ASSERT_EQ(experiments->size(), 1u);
  // Reach into experiments[0].runs via serialization (JsonValue has no array
  // accessor by index; count occurrences of the per-run key instead).
  const std::string text = doc.ToString();
  std::size_t count = 0;
  for (std::size_t pos = text.find("\"sum\""); pos != std::string::npos;
       pos = text.find("\"sum\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(RunnerTest, HistogramColumnsAreDeterministicTimingHistogramIsGated) {
  RunOptions options;
  options.filter = "run_hist";
  const std::string without = RunToString(options);
  // Deterministic histogram: present without --timing, full percentile shape.
  EXPECT_NE(without.find("\"quantum_ticks\""), std::string::npos);
  // Values 1..100: the linear region keeps 1..15 exact, above that the
  // log2 buckets quantize to their lower bound (50 -> 48, 99/100 -> 96).
  for (const char* key : {"\"count\": 100", "\"p50\": 48", "\"p99\": 96", "\"p999\": 96",
                          "\"mean\": 50.5", "\"min\": 1", "\"max\": 100"}) {
    EXPECT_NE(without.find(key), std::string::npos) << key;
  }
  // Wall-clock histogram: only under --timing.
  EXPECT_EQ(without.find("dispatch_ns"), std::string::npos);
  options.timing = true;
  const std::string with = RunToString(options);
  EXPECT_NE(with.find("dispatch_ns"), std::string::npos);
  // Same seed, same document — histograms respect the determinism contract.
  // (Only the untimed document is byte-stable: --timing adds wall_ms.)
  options.timing = false;
  EXPECT_EQ(without, RunToString(options));
}

TEST(RunnerTest, TracePathNeverEntersTheJson) {
  RunOptions options;
  options.filter = "run_hist";
  const std::string untraced = RunToString(options);
  options.trace_path = "/tmp/some_trace_file.json";
  const std::string traced = RunToString(options);
  EXPECT_EQ(untraced, traced);
  EXPECT_EQ(traced.find("some_trace_file"), std::string::npos);
}

TEST(RunnerTest, ParseRunOptionsAcceptsBothFlagStyles) {
  RunOptions options;
  std::ostringstream err;
  const char* argv[] = {"sfs_bench", "--filter", "fig6", "--seed=7",
                        "--repeat", "2",        "--json", "out.json",
                        "--timing", "--list",   "--trace=tr.json"};
  ASSERT_TRUE(ParseRunOptions(11, const_cast<char**>(argv), options, err));
  EXPECT_EQ(options.filter, "fig6");
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.repeat, 2);
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_TRUE(options.timing);
  EXPECT_TRUE(options.list);
  EXPECT_EQ(options.trace_path, "tr.json");
}

TEST(RunnerTest, ParseRunOptionsRejectsBadInput) {
  std::ostringstream err;
  {
    RunOptions options;
    const char* argv[] = {"sfs_bench", "--unknown"};
    EXPECT_FALSE(ParseRunOptions(2, const_cast<char**>(argv), options, err));
  }
  {
    RunOptions options;
    const char* argv[] = {"sfs_bench", "--repeat", "zero"};
    EXPECT_FALSE(ParseRunOptions(3, const_cast<char**>(argv), options, err));
  }
  {
    RunOptions options;
    const char* argv[] = {"sfs_bench", "--repeat", "-3"};
    EXPECT_FALSE(ParseRunOptions(3, const_cast<char**>(argv), options, err));
  }
  {
    RunOptions options;
    const char* argv[] = {"sfs_bench", "--filter"};
    EXPECT_FALSE(ParseRunOptions(2, const_cast<char**>(argv), options, err));
  }
}

TEST(RunnerTest, DocumentCarriesSpecMetadata) {
  RunOptions options;
  options.filter = "run_timed";
  const std::string text = RunToString(options);
  EXPECT_NE(text.find("\"warmup\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"repetitions\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"deterministic\": false"), std::string::npos);
}

TEST(RunnerTest, UnknownSchedulerNamesNameTheExperiment) {
  Experiment stale;
  stale.spec.name = "stale_exp";
  stale.spec.schedulers = {"sfs", "stride", "sharded-bvt"};
  Experiment current;
  current.spec.name = "current_exp";
  current.spec.schedulers = {"sfq", "sharded-sfq"};
  const std::vector<std::string> errors = UnknownSchedulerErrors({&current, &stale});
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("stale_exp"), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find("\"stride\""), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("\"sharded-bvt\""), std::string::npos) << errors[1];
  // Every experiment registered in this binary names a real policy.
  EXPECT_TRUE(UnknownSchedulerErrors(Registry::Instance().Match("")).empty());
}

}  // namespace
}  // namespace sfs::harness
