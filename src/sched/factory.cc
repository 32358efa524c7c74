#include "src/sched/factory.h"

#include <cmath>
#include <initializer_list>
#include <sstream>

#include "src/common/assert.h"
#include "src/sched/hsfs.h"
#include "src/sched/sfq.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sched/tag_arith.h"
#include "src/sched/timeshare.h"
#include "src/sched/wfq.h"

namespace sfs::sched {

namespace {

constexpr SchedKind kAllSchedKinds[] = {
    SchedKind::kSfs,       SchedKind::kHsfs,       SchedKind::kSfq,        SchedKind::kWfq,
    SchedKind::kTimeshare, SchedKind::kShardedSfs, SchedKind::kShardedSfq, SchedKind::kShardedWfq,
};

constexpr QueueBackend kAllQueueBackends[] = {QueueBackend::kSortedList,
                                              QueueBackend::kSkipList};

constexpr ShardStealPolicy kAllStealPolicies[] = {ShardStealPolicy::kNone,
                                                  ShardStealPolicy::kMaxSurplus};

template <typename Enum, typename Range, typename NameFn>
std::string JoinNames(const Range& values, NameFn name) {
  std::ostringstream out;
  bool first = true;
  for (const Enum value : values) {
    if (!first) {
      out << ", ";
    }
    first = false;
    out << name(value);
  }
  return out.str();
}

}  // namespace

std::string_view SchedKindName(SchedKind kind) {
  switch (kind) {
    case SchedKind::kSfs:
      return "sfs";
    case SchedKind::kHsfs:
      return "hsfs";
    case SchedKind::kSfq:
      return "sfq";
    case SchedKind::kWfq:
      return "wfq";
    case SchedKind::kTimeshare:
      return "timeshare";
    case SchedKind::kShardedSfs:
      return "sharded-sfs";
    case SchedKind::kShardedSfq:
      return "sharded-sfq";
    case SchedKind::kShardedWfq:
      return "sharded-wfq";
  }
  return "unknown";
}

std::optional<SchedKind> ParseSchedKind(std::string_view name) {
  for (SchedKind kind : kAllSchedKinds) {
    if (name == SchedKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<SchedKind> ShardedKindFor(SchedKind kind) {
  switch (kind) {
    case SchedKind::kSfs:
      return SchedKind::kShardedSfs;
    case SchedKind::kSfq:
      return SchedKind::kShardedSfq;
    case SchedKind::kWfq:
      return SchedKind::kShardedWfq;
    default:
      return std::nullopt;
  }
}

std::string_view QueueBackendName(QueueBackend backend) {
  switch (backend) {
    case QueueBackend::kSortedList:
      return "sorted_list";
    case QueueBackend::kSkipList:
      return "skip_list";
  }
  return "unknown";
}

std::optional<QueueBackend> ParseQueueBackend(std::string_view name) {
  for (QueueBackend backend : kAllQueueBackends) {
    if (name == QueueBackendName(backend)) {
      return backend;
    }
  }
  return std::nullopt;
}

std::string_view ShardStealPolicyName(ShardStealPolicy policy) {
  switch (policy) {
    case ShardStealPolicy::kNone:
      return "none";
    case ShardStealPolicy::kMaxSurplus:
      return "max_surplus";
  }
  return "unknown";
}

std::optional<ShardStealPolicy> ParseShardStealPolicy(std::string_view name) {
  for (ShardStealPolicy policy : kAllStealPolicies) {
    if (name == ShardStealPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

std::string KnownSchedKindNames() {
  return JoinNames<SchedKind>(kAllSchedKinds, SchedKindName);
}

std::string KnownQueueBackendNames() {
  return JoinNames<QueueBackend>(kAllQueueBackends, QueueBackendName);
}

std::string KnownShardStealPolicyNames() {
  return JoinNames<ShardStealPolicy>(kAllStealPolicies, ShardStealPolicyName);
}

std::string ValidateSchedConfig(const SchedConfig& config) {
  std::ostringstream error;
  if (config.num_cpus < 1) {
    error << "num_cpus must be >= 1 (got " << config.num_cpus << ")";
  } else if (config.quantum <= 0) {
    error << "quantum must be positive (got " << config.quantum << ")";
  } else if (config.fixed_point_digits > kMaxFixedPointDigits) {
    error << "fixed_point_digits must be <= " << kMaxFixedPointDigits
          << " (negative = exact arithmetic; got " << config.fixed_point_digits << ")";
  } else if (config.heuristic_k < 0) {
    error << "heuristic_k must be >= 0 (got " << config.heuristic_k << ")";
  } else if (config.heuristic_refresh_period <= 0) {
    error << "heuristic_refresh_period must be positive (got "
          << config.heuristic_refresh_period << ")";
  } else if (QueueBackendName(config.queue_backend) == std::string_view("unknown")) {
    error << "unknown queue backend; known backends: " << KnownQueueBackendNames();
  } else if (ShardStealPolicyName(config.shard_steal) == std::string_view("unknown")) {
    error << "unknown shard steal policy; known policies: " << KnownShardStealPolicyNames();
  } else if (config.shard_rebalance_period < 0) {
    error << "shard_rebalance_period must be >= 0 decisions (0 = never; got "
          << config.shard_rebalance_period << ")";
  } else if (!(config.shard_coupling >= 0.0 && config.shard_coupling <= 1.0)) {
    // Written so that NaN fails too.
    error << "shard_coupling must lie in [0, 1] (got " << config.shard_coupling << ")";
  } else if (!std::isfinite(config.tag_rebase_threshold) || config.tag_rebase_threshold <= 0.0) {
    error << "tag_rebase_threshold must be finite and positive (got "
          << config.tag_rebase_threshold << ")";
  }
  return error.str();
}

std::unique_ptr<Scheduler> CreateScheduler(SchedKind kind, const SchedConfig& config) {
  switch (kind) {
    case SchedKind::kSfs: {
      SchedConfig c = config;
      c.use_readjustment = true;  // SFS is defined with readjusted weights
      return std::make_unique<Sfs>(c);
    }
    case SchedKind::kHsfs:
      return std::make_unique<HierarchicalSfs>(config);
    case SchedKind::kSfq:
      return std::make_unique<Sfq>(config);
    case SchedKind::kWfq:
      return std::make_unique<Wfq>(config);
    case SchedKind::kTimeshare:
      return std::make_unique<Timeshare>(config);
    case SchedKind::kShardedSfs: {
      SchedConfig c = config;
      c.use_readjustment = true;  // match flat SFS (no-op inside 1-CPU shards)
      return std::make_unique<Sharded<Sfs>>(c);
    }
    case SchedKind::kShardedSfq:
      return std::make_unique<Sharded<Sfq>>(config);
    case SchedKind::kShardedWfq:
      return std::make_unique<Sharded<Wfq>>(config);
  }
  SFS_CHECK(false);
  return nullptr;
}

std::unique_ptr<Scheduler> MakeScheduler(std::string_view policy, const SchedConfig& config,
                                         std::string* error) {
  const std::optional<SchedKind> kind = ParseSchedKind(policy);
  if (!kind.has_value()) {
    if (error != nullptr) {
      std::ostringstream message;
      message << "unknown scheduler policy \"" << policy
              << "\"; known policies: " << KnownSchedKindNames();
      *error = message.str();
    }
    return nullptr;
  }
  std::string config_error = ValidateSchedConfig(config);
  if (!config_error.empty()) {
    if (error != nullptr) {
      *error = "invalid SchedConfig for policy \"" + std::string(policy) +
               "\": " + config_error;
    }
    return nullptr;
  }
  if (error != nullptr) {
    error->clear();
  }
  return CreateScheduler(*kind, config);
}

}  // namespace sfs::sched
