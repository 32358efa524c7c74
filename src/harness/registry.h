// Benchmark-experiment registry.
//
// Each figure/table/ablation of the paper registers itself as a named
// experiment at static-initialization time; the single `sfs_bench` binary
// lists, filters and runs them through harness::RunBenchMain.  An experiment
// declares its name, the scheduler(s) under test, a repetition/warmup policy,
// and a body that reports results through a Reporter.

#ifndef SFS_HARNESS_REGISTRY_H_
#define SFS_HARNESS_REGISTRY_H_

#include <string>
#include <string_view>
#include <vector>

namespace sfs::harness {

class Reporter;

struct ExperimentSpec {
  // Unique registry key, e.g. "fig6a_proportional"; `--filter` matches on
  // substrings of this.
  std::string name = {};

  // One-line human description printed by `--list` and embedded in the JSON.
  std::string description = {};

  // Canonical sched::SchedKindName()s exercised by the experiment, for
  // provenance in the JSON document.  sfs_bench refuses to list or run while
  // any registered experiment names one sched::ParseSchedKind rejects.
  std::vector<std::string> schedulers = {};

  // Measured repetitions recorded in the output (overridable with --repeat).
  int repetitions = 1;

  // Discarded warm-up executions before the measured repetitions; only
  // wall-clock experiments need a nonzero value.
  int warmup = 0;

  // True when the recorded metrics are a pure function of --seed (no
  // wall-clock measurements), i.e. reruns are byte-identical.
  bool deterministic = true;
};

using ExperimentFn = void (*)(Reporter&);

struct Experiment {
  ExperimentSpec spec;
  ExperimentFn fn = nullptr;
};

class Registry {
 public:
  static Registry& Instance();

  // Registers an experiment; aborts on a duplicate name (two translation units
  // claiming the same experiment is a build error, not a runtime condition).
  void Register(ExperimentSpec spec, ExperimentFn fn);

  const Experiment* Find(std::string_view name) const;

  // Experiments whose name contains `filter` (empty matches all), in
  // lexicographic name order — the order experiments run and serialize in.
  std::vector<const Experiment*> Match(std::string_view filter) const;

  std::size_t size() const { return experiments_.size(); }

 private:
  Registry() = default;
  std::vector<Experiment> experiments_;  // kept sorted by spec.name
};

struct Registrar {
  Registrar(ExperimentSpec spec, ExperimentFn fn);
};

}  // namespace sfs::harness

// Defines and registers an experiment body:
//
//   SFS_EXPERIMENT(fig3_heuristic,
//                  .description = "Figure 3: heuristic accuracy",
//                  .schedulers = {"sfs"}) {
//     reporter.Metric("accuracy_pct", ...);
//   }
//
// Designated initializers after the name must follow ExperimentSpec field
// order (C++20).
#define SFS_EXPERIMENT(id, ...)                                            \
  static void SfsExperimentBody_##id(::sfs::harness::Reporter& reporter);  \
  static const ::sfs::harness::Registrar sfs_experiment_registrar_##id(    \
      ::sfs::harness::ExperimentSpec{.name = #id, __VA_ARGS__},            \
      &SfsExperimentBody_##id);                                            \
  static void SfsExperimentBody_##id(                                      \
      [[maybe_unused]] ::sfs::harness::Reporter& reporter)

#endif  // SFS_HARNESS_REGISTRY_H_
