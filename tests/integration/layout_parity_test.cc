// Layout-parity differential: the hot scheduler fields live in a cache-line
// row (sched::EntityHotRow), sim::Task is split hot/cold, and the engine
// drains each timing-wheel tick as a batch — none of which may change which
// thread is picked, ever.  Two guards:
//
//  1. The batched drain must reproduce the recorded runs of the deleted
//     per-event (unbatched) drain for every scheduler kind on randomized
//     workloads (recorded_runs.h, seeds 1-6): both fingerprints, per-task
//     services and the accounting counters.
//  2. Seed 1, the run recorded from the pre-refactor AoS build (verified
//     byte-identical over the full fig/abl suite when the layout change
//     landed), always runs: it is recorded_runs.h's seed-1 row for each kind.
//
// The workload is the shared one (fuzz_workload.h), with no environment
// overrides, and every run is audited (AuditFor).  SFS_FUZZ_SEEDS bounds the
// seeds tried per policy (default 6, at most the recorded 6).  A third check
// reads only the recorded rows: no two flat kinds may record the same run on
// every seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "src/sched/factory.h"
#include "tests/integration/fuzz_workload.h"
#include "tests/integration/recorded_runs.h"
#include "tests/sched_kind_param_name.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;

class LayoutParityTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(LayoutParityTest, BatchedAndUnbatchedDrainsAreByteIdentical) {
  const std::uint64_t seeds = std::min(FuzzSeedCount(6), kRecordedSeeds);
  std::uint64_t checked = 0;
  for (const RecordedRun& unbatched : kRecordedRuns) {
    if (unbatched.kind != GetParam() || unbatched.seed > seeds) {
      continue;
    }
    const TraceResult batched = RunFuzzWorkload(GetParam(), unbatched.seed, /*honor_env=*/false);
    EXPECT_EQ(batched.run_fingerprint, unbatched.run_fingerprint) << "seed " << unbatched.seed;
    EXPECT_EQ(batched.lifecycle_fingerprint, unbatched.lifecycle_fingerprint)
        << "seed " << unbatched.seed;
    EXPECT_EQ(ServicesFingerprint(batched.services), unbatched.services_fingerprint)
        << "seed " << unbatched.seed;
    EXPECT_EQ(batched.events, unbatched.events) << "seed " << unbatched.seed;
    EXPECT_EQ(batched.dispatches, unbatched.dispatches) << "seed " << unbatched.seed;
    EXPECT_EQ(batched.preemptions, unbatched.preemptions) << "seed " << unbatched.seed;
    EXPECT_EQ(batched.idle, unbatched.idle) << "seed " << unbatched.seed;
    EXPECT_EQ(batched.ctx_cost, unbatched.ctx_cost) << "seed " << unbatched.seed;
    ++checked;
  }
  EXPECT_EQ(checked, seeds);
}

TEST_P(LayoutParityTest, MatchesPreRefactorGoldenFingerprints) {
  for (const RecordedRun& golden : kRecordedRuns) {
    if (golden.kind != GetParam() || golden.seed != 1) {
      continue;
    }
    const TraceResult run = RunFuzzWorkload(GetParam(), /*seed=*/1, /*honor_env=*/false);
    EXPECT_EQ(run.run_fingerprint, golden.run_fingerprint);
    EXPECT_EQ(run.lifecycle_fingerprint, golden.lifecycle_fingerprint);
  }
}

// Two flat kinds whose recorded runs match on every seed schedule identically
// on this workload: one of them is a duplicate policy under another name.
TEST(RecordedRunsTest, EveryFlatKindIsDistinguishable) {
  std::map<SchedKind, std::vector<std::uint64_t>> runs;  // fingerprints in seed order
  for (const RecordedRun& run : kRecordedRuns) {
    runs[run.kind].push_back(run.run_fingerprint);
  }
  for (auto a = runs.begin(); a != runs.end(); ++a) {
    for (auto b = std::next(a); b != runs.end(); ++b) {
      EXPECT_NE(a->second, b->second) << sched::SchedKindName(a->first) << " and "
                                      << sched::SchedKindName(b->first)
                                      << " record the same run on every seed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, LayoutParityTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq,
                                           SchedKind::kWfq, SchedKind::kTimeshare),
                         SchedKindParamName);

}  // namespace
}  // namespace sfs::eval
