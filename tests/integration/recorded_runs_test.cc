// The recorded runs (recorded_runs.h): today's serial engine must replay
// every row — the run and lifecycle fingerprints, per-task services and the
// accounting counters of each flat kind's randomized workload on seeds 1-6,
// with sharded draws included.  Any change to event order, a scheduling
// decision or the hot-field layout shows up as a mismatch.
//
// Two reference engines recorded the rows and are now deleted: a binary-heap
// event queue and a per-event (unbatched) timing-wheel drain.  The two
// replay tests keep the names of the comparisons they once were, one per
// reference engine; both now check today's engine against the same rows.
//
// The workload is the shared one (fuzz_workload.h), with no environment
// overrides, and every run is audited (AuditFor).  SFS_FUZZ_SEEDS bounds the
// seeds replayed per kind (default 6, at most the recorded 6).  A third
// check reads only the recorded rows: no two flat kinds may record the same
// run on every seed.

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

// Replays every recorded row of `kind` and compares all eight fields.
void ExpectRecordedRowsReplay(SchedKind kind) {
  const std::uint64_t seeds = std::min(FuzzSeedCount(6), kRecordedSeeds);
  std::uint64_t checked = 0;
  for (const RecordedRun& row : kRecordedRuns) {
    if (row.kind != kind || row.seed > seeds) {
      continue;
    }
    const TraceResult run = RunFuzzWorkload(kind, row.seed, /*honor_env=*/false);
    EXPECT_EQ(run.run_fingerprint, row.run_fingerprint) << "seed " << row.seed;
    EXPECT_EQ(run.lifecycle_fingerprint, row.lifecycle_fingerprint) << "seed " << row.seed;
    EXPECT_EQ(ServicesFingerprint(run.services), row.services_fingerprint)
        << "seed " << row.seed;
    EXPECT_EQ(run.events, row.events) << "seed " << row.seed;
    EXPECT_EQ(run.dispatches, row.dispatches) << "seed " << row.seed;
    EXPECT_EQ(run.preemptions, row.preemptions) << "seed " << row.seed;
    EXPECT_EQ(run.idle, row.idle) << "seed " << row.seed;
    EXPECT_EQ(run.ctx_cost, row.ctx_cost) << "seed " << row.seed;
    ++checked;
  }
  EXPECT_EQ(checked, seeds);
}

class EventQueueFuzzTest : public ::testing::TestWithParam<SchedKind> {};
class LayoutParityTest : public ::testing::TestWithParam<SchedKind> {};

// Against the rows of the deleted binary-heap event queue.
TEST_P(EventQueueFuzzTest, WheelAndHeapTracesAreByteIdentical) {
  ExpectRecordedRowsReplay(GetParam());
}

// Against the rows of the deleted per-event timing-wheel drain.
TEST_P(LayoutParityTest, BatchedAndUnbatchedDrainsAreByteIdentical) {
  ExpectRecordedRowsReplay(GetParam());
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

INSTANTIATE_TEST_SUITE_P(AllPolicies, EventQueueFuzzTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq,
                                           SchedKind::kWfq, SchedKind::kTimeshare),
                         SchedKindParamName);
INSTANTIATE_TEST_SUITE_P(AllPolicies, LayoutParityTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq,
                                           SchedKind::kWfq, SchedKind::kTimeshare),
                         SchedKindParamName);

}  // namespace
}  // namespace sfs::eval
