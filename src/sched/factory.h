// Scheduler factory: constructs any policy in the library by kind.

#ifndef SFS_SCHED_FACTORY_H_
#define SFS_SCHED_FACTORY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/sched/scheduler.h"

namespace sfs::sched {

// The values are explicit so that each kind keeps its number when another is
// deleted: parameterized test instance names print it.
enum class SchedKind {
  kSfs = 0,        // surplus fair scheduling (this paper)
  kHsfs = 1,       // hierarchical SFS (the paper's future-work extension)
  kSfq = 2,        // start-time fair queueing
  kWfq = 4,        // weighted fair queueing
  kTimeshare = 6,  // Linux 2.2-style time sharing
  // Sharded variants: one uniprocessor instance of the policy per CPU behind
  // the steal/rebalance/coupling machinery of sched::Sharded.
  kShardedSfs = 9,
  kShardedSfq = 10,
};

// Canonical lower-case name ("sfs", "sharded-sfs", ...).
std::string_view SchedKindName(SchedKind kind);

// Parses a canonical name; nullopt if unknown.
std::optional<SchedKind> ParseSchedKind(std::string_view name);

// The sharded variant of a flat GPS policy kind (e.g. kSfs -> kShardedSfs);
// nullopt for kinds without one (hsfs and the non-GPS baselines) and for
// already-sharded kinds.
std::optional<SchedKind> ShardedKindFor(SchedKind kind);

// Canonical lower-case steal-policy name ("none", "max_surplus").
std::string_view ShardStealPolicyName(ShardStealPolicy policy);

// Parses a canonical steal-policy name; nullopt if unknown.
std::optional<ShardStealPolicy> ParseShardStealPolicy(std::string_view name);

// Comma-separated lists of every known canonical name, for error messages.
std::string KnownSchedKindNames();
std::string KnownShardStealPolicyNames();

// Validates a configuration: returns an empty string when usable, otherwise a
// message naming the offending knob (steal policy, rebalance period,
// coupling, ...) and the accepted values.
std::string ValidateSchedConfig(const SchedConfig& config);

// Constructs the scheduler.  SchedConfig::use_readjustment selects the
// with/without-readjustment variants of the GPS baselines (SFS always
// readjusts).  CHECK-fails on invalid configurations; use MakeScheduler for
// the error-reporting path.
std::unique_ptr<Scheduler> CreateScheduler(SchedKind kind, const SchedConfig& config);

// Parses `policy` and constructs the scheduler after validating `config`.  On
// failure returns nullptr and, when `error` is non-null, stores a message
// naming the rejected input and listing the accepted alternatives.
std::unique_ptr<Scheduler> MakeScheduler(std::string_view policy, const SchedConfig& config,
                                         std::string* error = nullptr);

}  // namespace sfs::sched

#endif  // SFS_SCHED_FACTORY_H_
