// Randomized end-to-end stress: every scheduler driven by the shared random
// workload (fuzz_workload.h: compute hogs, interactive sleepers, churning
// short jobs, mid-run kills and weight changes), its state audited after
// every run interval and lifecycle event (AuditFor).  The point is not a
// specific allocation but that no protocol invariant, accounting identity or
// determinism property ever breaks.
//
// SFS_FUZZ_SEEDS bounds the seeds tried per policy (default 6); CI sets a
// small value to keep the suite under a minute on slow runners.
// SFS_FUZZ_SHARDED ("0" / "1") pins whether GPS policies run behind the
// sharded per-CPU layer; unset, each seed draws it (plus random steal,
// rebalance and coupling knobs) so flat and sharded variants are both fuzzed.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/sched/factory.h"
#include "tests/integration/fuzz_workload.h"
#include "tests/sched_kind_param_name.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;

class EngineFuzzTest : public ::testing::TestWithParam<SchedKind> {};

TraceResult RunOnce(SchedKind kind, std::uint64_t seed) {
  const TraceResult run = RunFuzzWorkload(kind, seed);
  // Accounting identity: service + idle + switch cost == capacity.
  EXPECT_EQ(run.busy + run.idle + run.ctx_cost, static_cast<Tick>(run.num_cpus) * kFuzzHorizon)
      << "kind=" << SchedKindName(kind) << " seed=" << seed;
  return run;
}

TEST_P(EngineFuzzTest, AccountingAndDeterminismAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= FuzzSeedCount(6); ++seed) {
    // Bit-exact determinism: same seed, same everything.
    EXPECT_EQ(RunOnce(GetParam(), seed), RunOnce(GetParam(), seed)) << "seed " << seed;
  }
}

// The harness audits exactly the kinds that have an audit (all but time
// sharing); if the selector stopped recognizing one, its fuzz runs would pass
// without checking it.
TEST(FuzzAuditTest, SelectsAnAuditForSfsAndEveryShardedKind) {
  sched::SchedConfig config;
  config.num_cpus = 2;
  for (const SchedKind kind : {SchedKind::kSfs, SchedKind::kShardedSfs, SchedKind::kShardedSfq,
                               SchedKind::kSfq, SchedKind::kWfq, SchedKind::kHsfs}) {
    const auto scheduler = CreateScheduler(kind, config);
    const auto audit = AuditFor(*scheduler);
    ASSERT_TRUE(audit) << SchedKindName(kind);
    EXPECT_EQ(audit(), "") << SchedKindName(kind);
  }
  EXPECT_FALSE(AuditFor(*CreateScheduler(SchedKind::kTimeshare, config)));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EngineFuzzTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq,
                                           SchedKind::kWfq, SchedKind::kTimeshare),
                         SchedKindParamName);

}  // namespace
}  // namespace sfs::eval
