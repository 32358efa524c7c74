// Unit tests for the scheduler factory.

#include "src/sched/factory.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace sfs::sched {
namespace {

constexpr SchedKind kAllKinds[] = {
    SchedKind::kSfs,       SchedKind::kHsfs,       SchedKind::kSfq,        SchedKind::kWfq,
    SchedKind::kTimeshare, SchedKind::kShardedSfs, SchedKind::kShardedSfq};

TEST(FactoryTest, NameParseRoundTrip) {
  for (const SchedKind kind : kAllKinds) {
    const auto parsed = ParseSchedKind(SchedKindName(kind));
    ASSERT_TRUE(parsed.has_value()) << SchedKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(FactoryTest, UnknownNameIsNullopt) {
  EXPECT_FALSE(ParseSchedKind("cfs").has_value());
  EXPECT_FALSE(ParseSchedKind("").has_value());
  EXPECT_FALSE(ParseSchedKind("SFS").has_value());  // names are lower-case
}

TEST(FactoryTest, CreatesEveryKind) {
  SchedConfig config;
  config.num_cpus = 2;
  for (const SchedKind kind : kAllKinds) {
    auto scheduler = CreateScheduler(kind, config);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->num_cpus(), 2);
    EXPECT_FALSE(scheduler->name().empty());
  }
}

TEST(FactoryTest, ConfigPropagates) {
  SchedConfig config;
  config.num_cpus = 3;
  config.quantum = Msec(42);
  auto scheduler = CreateScheduler(SchedKind::kSfs, config);
  EXPECT_EQ(scheduler->config().quantum, Msec(42));
  EXPECT_EQ(scheduler->num_cpus(), 3);
}

TEST(FactoryTest, SfsAlwaysReadjustsEvenIfConfigSaysNo) {
  SchedConfig config;
  config.num_cpus = 2;
  config.use_readjustment = false;
  auto scheduler = CreateScheduler(SchedKind::kSfs, config);
  EXPECT_TRUE(scheduler->config().use_readjustment);
}

TEST(FactoryTest, ShardedKindForMapsEveryGpsPolicy) {
  EXPECT_EQ(ShardedKindFor(SchedKind::kSfs), SchedKind::kShardedSfs);
  EXPECT_EQ(ShardedKindFor(SchedKind::kSfq), SchedKind::kShardedSfq);
  // No figure runs per-CPU WFQ, so flat WFQ has no sharded variant.
  EXPECT_FALSE(ShardedKindFor(SchedKind::kWfq).has_value());
  EXPECT_FALSE(ShardedKindFor(SchedKind::kHsfs).has_value());
  EXPECT_FALSE(ShardedKindFor(SchedKind::kTimeshare).has_value());
  EXPECT_FALSE(ShardedKindFor(SchedKind::kShardedSfs).has_value());
}

TEST(FactoryTest, ShardStealPolicyNameRoundTrip) {
  for (const ShardStealPolicy policy :
       {ShardStealPolicy::kNone, ShardStealPolicy::kMaxSurplus}) {
    const auto parsed = ParseShardStealPolicy(ShardStealPolicyName(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseShardStealPolicy("random").has_value());
}

TEST(FactoryTest, MakeSchedulerBuildsEveryKnownPolicyByName) {
  SchedConfig config;
  config.num_cpus = 2;
  for (const SchedKind kind : kAllKinds) {
    std::string error = "sentinel";
    auto scheduler = MakeScheduler(SchedKindName(kind), config, &error);
    ASSERT_NE(scheduler, nullptr) << SchedKindName(kind) << ": " << error;
    EXPECT_TRUE(error.empty()) << SchedKindName(kind);
    EXPECT_FALSE(scheduler->name().empty());
  }
}

TEST(FactoryTest, MakeSchedulerRejectsUnknownPolicyListingAlternatives) {
  std::string error;
  EXPECT_EQ(MakeScheduler("cfs", SchedConfig{}, &error), nullptr);
  EXPECT_NE(error.find("unknown scheduler policy \"cfs\""), std::string::npos) << error;
  // The message lists the valid alternatives.
  EXPECT_NE(error.find("sfs"), std::string::npos) << error;
  EXPECT_NE(error.find("sharded-sfs"), std::string::npos) << error;
  EXPECT_NE(error.find("sharded-sfq"), std::string::npos) << error;
  // A null error pointer is accepted.
  EXPECT_EQ(MakeScheduler("cfs", SchedConfig{}), nullptr);
  // Stride and BVT ran SFQ's schedule, and round-robin, lottery and per-CPU
  // WFQ had no experiment; all were removed, and their names are gone with
  // them rather than kept as aliases.
  for (const char* removed :
       {"stride", "bvt", "sharded-stride", "sharded-bvt", "rr", "lottery", "sharded-wfq"}) {
    EXPECT_EQ(MakeScheduler(removed, SchedConfig{}, &error), nullptr) << removed;
    EXPECT_NE(error.find("unknown scheduler policy"), std::string::npos) << error;
  }
}

TEST(FactoryTest, MakeSchedulerValidatesShardingKnobs) {
  std::string error;
  SchedConfig config;
  // NaN passes a plain range test (every comparison with it is false), and
  // the sharded constructor's CHECK would then abort instead of reporting.
  for (const double coupling : {1.5, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    config.shard_coupling = coupling;
    EXPECT_EQ(MakeScheduler("sharded-sfs", config, &error), nullptr) << coupling;
    EXPECT_NE(error.find("shard_coupling"), std::string::npos) << error;
  }

  config = SchedConfig{};
  config.shard_rebalance_period = -3;
  EXPECT_EQ(MakeScheduler("sharded-sfq", config, &error), nullptr);
  EXPECT_NE(error.find("shard_rebalance_period"), std::string::npos) << error;

  config = SchedConfig{};
  config.shard_steal = static_cast<ShardStealPolicy>(42);
  EXPECT_EQ(MakeScheduler("sharded-sfs", config, &error), nullptr);
  EXPECT_NE(error.find("steal"), std::string::npos) << error;
  EXPECT_NE(error.find("max_surplus"), std::string::npos) << error;

  config = SchedConfig{};
  config.num_cpus = 0;
  EXPECT_EQ(MakeScheduler("sfs", config, &error), nullptr);
  EXPECT_NE(error.find("num_cpus"), std::string::npos) << error;
}

TEST(FactoryTest, MakeSchedulerRequiresFinitePositiveTagRebaseThreshold) {
  // A threshold <= 0 or NaN fails SFS's `v <= threshold` test whenever the
  // virtual time is positive, so every decision would rebase every entity; an
  // infinite one would switch tag rebasing off.
  for (const double threshold : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
    std::string error;
    SchedConfig config;
    config.tag_rebase_threshold = threshold;
    EXPECT_EQ(MakeScheduler("sfs", config, &error), nullptr) << threshold;
    EXPECT_NE(error.find("tag_rebase_threshold"), std::string::npos) << error;
  }
  SchedConfig config;
  config.tag_rebase_threshold = 1000.0;
  std::string error;
  EXPECT_NE(MakeScheduler("sfs", config, &error), nullptr) << error;
}

TEST(FactoryTest, MakeSchedulerRejectsNegativeAffinityTolerance) {
  // Flat SFS reads any tolerance <= 0 as off, but the steal path adds it to
  // the cache-warm nominee's score, so at -1 a tie would no longer go to the
  // cache-warm thread: a negative value has no single meaning.
  for (const char* policy : {"sfs", "sharded-sfs"}) {
    std::string error;
    SchedConfig config;
    config.affinity_tolerance = -1;
    EXPECT_EQ(MakeScheduler(policy, config, &error), nullptr) << policy;
    EXPECT_NE(error.find("affinity_tolerance"), std::string::npos) << error;
    // Direct construction CHECKs it too.
    EXPECT_DEATH(CreateScheduler(*ParseSchedKind(policy), config), "CHECK failed");
  }
  SchedConfig config;
  config.affinity_tolerance = 0;
  std::string error;
  EXPECT_NE(MakeScheduler("sharded-sfs", config, &error), nullptr) << error;
}

TEST(FactoryTest, MakeSchedulerRejectsOutOfRangeFixedPointDigits) {
  std::string error;
  SchedConfig config;
  config.fixed_point_digits = 9;
  EXPECT_EQ(MakeScheduler("sfq", config, &error), nullptr);
  EXPECT_NE(error.find("fixed_point_digits"), std::string::npos) << error;

  config.fixed_point_digits = 19;  // 10^19 overflows int64
  EXPECT_EQ(MakeScheduler("sfs", config, &error), nullptr);
  EXPECT_NE(error.find("fixed_point_digits"), std::string::npos) << error;

  config.fixed_point_digits = 8;
  EXPECT_NE(MakeScheduler("sfq", config, &error), nullptr) << error;
}

TEST(FactoryTest, ValidateSchedConfigAcceptsDefaults) {
  EXPECT_TRUE(ValidateSchedConfig(SchedConfig{}).empty());
}

TEST(FactoryTest, ShardedSchedulerNamesExposeThePolicy) {
  SchedConfig config;
  config.num_cpus = 2;
  EXPECT_EQ(CreateScheduler(SchedKind::kShardedSfs, config)->name(), "sharded-SFS");
  EXPECT_EQ(CreateScheduler(SchedKind::kShardedSfq, config)->name(), "sharded-SFQ+readjust");
}

TEST(FactoryTest, SfqVariantsNamedDistinctly) {
  SchedConfig with;
  with.use_readjustment = true;
  SchedConfig without;
  without.use_readjustment = false;
  EXPECT_NE(CreateScheduler(SchedKind::kSfq, with)->name(),
            CreateScheduler(SchedKind::kSfq, without)->name());
}

}  // namespace
}  // namespace sfs::sched
