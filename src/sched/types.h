// Core identifier and configuration types shared by all schedulers.

#ifndef SFS_SCHED_TYPES_H_
#define SFS_SCHED_TYPES_H_

#include <cstdint>

#include "src/common/time.h"

namespace sfs::sched {

// Thread (task) identifier.  Ids are assigned by the caller (simulator/executor)
// and are dense small integers in practice.
using ThreadId = std::int32_t;
inline constexpr ThreadId kInvalidThread = -1;

// Processor identifier, 0 .. num_cpus-1.
using CpuId = std::int32_t;
inline constexpr CpuId kInvalidCpu = -1;

// Relative share request (the paper's w_i).  Positive; need not be integral —
// the readjustment algorithm produces fractional instantaneous weights.
using Weight = double;

// Run-queue backend for the GPS scheduler family's sorted queues (Section 3.2:
// insertion is O(t) on the kernel's sorted lists; "binary search" — here an
// indexed skip list — shaves it to O(log t)).  Both backends obey the same
// ascending-key, FIFO-among-ties ordering contract, and every queue key carries
// a thread-id tie-break, so schedules are byte-identical across backends.
enum class QueueBackend {
  kSortedList,  // paper-faithful linear-scan sorted list (default)
  kSkipList,    // indexed skip list, O(log t) insert/reposition
};

// Victim-selection policy for the sharded scheduling layer's idle-pull work
// stealing (sched::ShardedScheduler).  The paper's Section 1.2 partitioned
// strawman is sharded-sfq with kNone, coupling 0 and a chosen rebalance
// period, so it and the production answer share one code path and differ only
// in knobs.
enum class ShardStealPolicy {
  kNone,        // never steal: a shard whose queue drains idles (partitioned)
  kMaxSurplus,  // idle CPU pulls the highest-surplus stealable thread
};

// Common scheduler construction parameters.
struct SchedConfig {
  // Number of processors p.
  int num_cpus = 2;

  // Maximum quantum handed out at dispatch (the engine may end it early on
  // blocking).  200 ms throughout the paper's evaluation.
  Tick quantum = kDefaultQuantum;

  // Fixed-point decimal digits for tag arithmetic (the paper's 10^n scaling
  // factor, Section 3.2).  Negative = exact double arithmetic.
  int fixed_point_digits = -1;

  // SFS scheduling heuristic (Section 3.2): examine the first `heuristic_k`
  // threads of each of the three queues instead of recomputing every surplus.
  // 0 disables the heuristic (exact algorithm).
  int heuristic_k = 0;

  // With the heuristic enabled, do a full surplus refresh + resort every this
  // many scheduling decisions ("infrequent updates and sorting are still
  // required to maintain a high accuracy of the heuristic").
  int heuristic_refresh_period = 64;

  // Enables the weight readjustment algorithm (Section 2.1).  SFS always uses
  // it; for SFQ and WFQ it is optional so that the paper's with/without
  // comparisons (Figure 4) can be run.
  bool use_readjustment = true;

  // Rebase threshold for tag wrap-around handling (Section 3.2).  When the
  // virtual time exceeds this many ticks of weighted service, all tags are
  // rebased against the minimum start tag.  Kept low enough to exercise the
  // path in tests; high enough to be invisible in normal runs.
  double tag_rebase_threshold = 1e15;

  // Backend for every sorted run queue the scheduler maintains (weight, start
  // tag, surplus, finish tag, ...).  The skip-list backend changes only
  // constants, never decisions.
  QueueBackend queue_backend = QueueBackend::kSortedList;

  // Processor-affinity extension (Section 5 future work): when > 0, a dispatch
  // may pick any thread whose surplus is within this many ticks of the minimum,
  // preferring one that last ran on the dispatching CPU (cache-warm).  0 keeps
  // the paper's affinity-blind SFS.  The sharded layer honours the same
  // tolerance when choosing a steal victim (prefer cache-warm candidates).
  Tick affinity_tolerance = 0;

  // --- sched::Sharded knobs (per-CPU shards; ignored by flat schedulers) ------

  // Idle-pull work stealing: what an idle shard may take from its peers.
  ShardStealPolicy shard_steal = ShardStealPolicy::kMaxSurplus;

  // Scheduling decisions between surplus-aware rebalancing passes across
  // shards (the paper's "periodic repartitioning"); 0 = never rebalance.
  int shard_rebalance_period = 0;

  // Cross-shard virtual-time coupling in [0, 1], applied when a thread
  // migrates between shards: 0 re-expresses tags purely relative to the
  // destination's virtual time (independent timelines, the partitioned
  // semantics — past cross-shard imbalance is forgiven), 1 keeps the absolute
  // tags (shards share one global timeline, so a migrant from a slow —
  // overloaded — shard arrives behind and is compensated until it catches
  // up, bounding cross-shard unfairness).
  double shard_coupling = 1.0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_TYPES_H_
