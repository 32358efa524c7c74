// Sharded scheduling layer: per-CPU GPS shards with surplus-aware work
// stealing and cross-shard virtual-time coupling.
//
// The paper rejects per-processor GPS scheduling because "frequent
// repartitioning can be expensive; doing so infrequently can result in
// imbalances (and unfairness) across partitions" (Section 1.2).  Production
// schedulers answer that objection with per-CPU run queues plus idle-time work
// stealing; this layer builds that answer on SFS's own surplus metric:
//
//   * one uniprocessor instance of a GPS policy (SFS or SFQ)
//     per CPU — a shard.  Uniprocessor GPS needs no weight readjustment
//     (every assignment is feasible), the approach's original selling point;
//   * weight-balanced placement at arrival (lightest shard by runnable
//     weight); wakeups rejoin their home shard (cache affinity);
//   * idle-pull work stealing inside PickNextEntity: a shard with nothing
//     runnable pulls the *highest-surplus* stealable thread from its peers
//     (the migration score phi * (S - v), the SFS alpha_i generalized to any
//     tagged policy), honoring SchedConfig::affinity_tolerance by preferring a
//     cache-warm candidate within the tolerance;
//   * optional periodic surplus-aware rebalancing — the paper's "periodic
//     repartitioning", moving the highest-surplus movable threads from the
//     heaviest to the lightest shard;
//   * cross-shard virtual-time coupling (SchedConfig::shard_coupling): how a
//     migrant's tags translate between shard timelines.  0 preserves only the
//     lead over the source's virtual time (independent timelines: past
//     cross-shard imbalance is forgiven — partitioned semantics); 1 keeps the
//     absolute tags (one shared timeline: a migrant from a slow, overloaded
//     shard arrives behind the destination and is compensated until it
//     catches up, bounding cross-shard unfairness).
//
// The paper's strawman (sharded-sfq with shard_steal = kNone, coupling 0 and
// a chosen rebalance period; bench/abl_partitioned) is the same machinery —
// strawman and production design differ only in knobs.
//
// Two bitmaps, one bit per shard, keep cross-shard questions O(p / 64):
//
//   * stealable: bit `cpu` is set iff shard `cpu` holds at least two
//     runnable threads.  The thief visits only set bits, in ascending CPU
//     order, and never locks a shard whose bit is clear.  Single-threaded
//     this is exact, not a heuristic: a victim must be runnable and not
//     running on a *busy* source, and a busy shard with one runnable thread
//     is running it.  Each visited shard nominates from its weight queue
//     (GpsSchedulerBase::PickMigrationCandidate), which holds only runnable
//     threads, so a failed steal costs O(words + stealable shards x their
//     runnable threads).
//   * runnable-shard: bit `cpu` is set iff shard `cpu` holds a runnable
//     thread, or its policy's empty pick would act
//     (GpsSchedulerBase::EmptyPickIsNoop: an SFS shard due to rebase).  It
//     answers Scheduler::PickMask, so sim::Engine calls PickNext only where
//     it can do something.  A clear bit is not enough on its own: an empty
//     shard's pick may steal, so PickMask answers all ones while a steal
//     could succeed (a stealable shard's processor is busy; `steal_sources_`
//     counts those shards) or while rebalancing is on (every pick advances
//     the rebalance clock).
//
// Both are resynchronized, under the shard's mutex, by every path that
// changes a shard's runnable count or busy state (admit, remove, block,
// wakeup, pick, charge, and both ends of a migration).  Under concurrency
// they are read lock-free and a bit may be stale: a stale clear stealable
// bit skips the shard exactly as a contended try_lock does (the dispatcher
// retries at its next decision), and a stale set bit costs one lock and a
// scan that finds nothing.  Concurrent drivers do not consult PickMask.
//
// Entity table: the host keeps its own (outer) entities in its Scheduler
// table, and every shard files its inner entities in one table the host
// owns (Scheduler::ShareEntityTable), so memory is O(t + p), not O(t x p).
// A shard's lookups confirm ownership through its own live list.  A
// migration never moves the inner entity: it stays in its tid's slot, and
// only ownership — its live_index and the two shards' live lists — is
// rewritten, under the source's and destination's mutexes only.  So a
// holder of one shard's mutex must never look up a tid that may have left
// that shard: TrySteal re-validates its nominee, which may have moved
// between two *other* shards since it was nominated, by walking the
// source's runnable queue (GpsSchedulerBase::FindRunnable), which the held
// source lock guards.
//
// Concurrency: this layer implements the per-shard half of the Scheduler
// thread-safety contract.  DispatchMutex(cpu) is the shard's own mutex, so
// dispatch on different CPUs proceeds in parallel; only the cross-shard paths
// (steal, rebalance pull) touch a peer shard, and they synchronize by locking
// the victim shard's mutex while already holding the dispatching shard's.
// Lock order: shard mutexes may only be *waited on* in ascending CPU-id
// order; a victim with a lower id than the dispatching shard is acquired by
// try_lock and skipped on contention (the dispatcher simply retries at its
// next decision), so no cycle of blocking waits can form.  Single-threaded
// drivers never contend, every try_lock succeeds, and behaviour — including
// every deterministic test fingerprint — is identical to the unlocked layer.

#ifndef SFS_SCHED_SHARDED_H_
#define SFS_SCHED_SHARDED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/sched/gps_base.h"

namespace sfs::sched {

// Re-expresses a migrating runnable entity's tags from the source shard's
// virtual time `v_src` into the destination's `v_dst`.  The lead above v_src
// is preserved; `coupling` in [0, 1] blends the translation origin between
// v_dst (0, fully relative) and v_src (1, absolute tags — shared timeline).
// The finish tag collapses onto the start tag (a runnable migrant carries no
// pending wakeup credit).
void TranslateMigratedTags(Entity& e, double v_src, double v_dst, double coupling);

class ShardedScheduler : public Scheduler {
 public:
  // Builds one uniprocessor shard per CPU from `config` (with num_cpus
  // rewritten to 1) using `make_shard`.  Shards are GPS policies: the steal
  // and rebalance paths nominate victims from their weight queues.
  using ShardFactory = std::function<std::unique_ptr<GpsSchedulerBase>(const SchedConfig&)>;
  ShardedScheduler(const SchedConfig& config, ShardFactory make_shard);
  ~ShardedScheduler() override;

  std::string_view name() const override { return name_; }

  Tick QuantumFor(ThreadId tid) override;

  // Local reschedule_idle: the woken thread competes for its home shard's
  // processor only (cross-shard placement happens by stealing, not by
  // preempting a foreign CPU).
  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // --- counters / introspection ------------------------------------------------

  std::int64_t steals() const override { return steals_.load(std::memory_order_relaxed); }
  std::int64_t shard_migrations() const override {
    return rebalance_migrations_.load(std::memory_order_relaxed);
  }

  // Home shard of a thread (== the CPU it is eligible to run on between
  // migrations).
  CpuId ShardOf(ThreadId tid) const;

  // Targeted-kick hook (scheduler.h): per-shard dispatch mutexes make the
  // home shard the one whose LockDispatch covers the lifecycle relaxation.
  CpuId HomeCpu(ThreadId tid) const override { return ShardOf(tid); }

  // Runnable weight per shard (placement/rebalance balance target).
  std::vector<double> ShardRunnableWeights() const;

  // The stealable-shard bit of `cpu`: set iff the shard held at least two
  // runnable threads when its count last changed (exact single-threaded;
  // see the header comment for the concurrent reading).
  bool Stealable(CpuId cpu) const { return TestBit(stealable_, cpu); }

  // The runnable-shard bit of `cpu` (see the header comment).
  bool RunnableShard(CpuId cpu) const { return TestBit(runnable_, cpu); }

  // The runnable-shard bitmap word, or all ones while a steal could succeed
  // or rebalancing is on.
  std::uint64_t PickMask(std::size_t word) const override;

  // Single-threaded consistency audit for tests: both bitmaps and the
  // steal-source count equal values recomputed from the shards; each shard's
  // weight queue passes GpsSchedulerBase::CheckWeightQueue (not
  // Sfs::CheckInvariants, whose uncapped-phi clause a shard fails while the
  // capped-phi defect of ROADMAP item 1 is open); the shared table files
  // exactly the shards' live entities, each held by exactly one shard, its
  // outer entity's home; per-shard runnable weights equal recomputed sums
  // (exactly, when every weight is an integer).  Returns an empty string, or
  // a description of the first violation.  O(t x p); the scheduler never
  // calls it.
  std::string CheckInvariants() const;

  // The uniprocessor policy instance hosting shard `cpu`.
  const GpsSchedulerBase& shard(CpuId cpu) const;
  GpsSchedulerBase& shard(CpuId cpu);

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;

  // Per-shard dispatch lock: dispatch on different CPUs does not serialize.
  common::Mutex& DispatchMutex(CpuId cpu) override;

  // The idle-pull victim `thief` would take: across the other shards, the
  // best nominee by migration score, or a cache-warm one within
  // affinity_tolerance of it.  Each source is locked only while it
  // nominates, so the result must be re-validated before acting on it
  // (TrySteal does).  {kInvalidThread, kInvalidCpu} when nothing is
  // stealable.
  struct StealVictim {
    ThreadId tid = kInvalidThread;
    CpuId shard = kInvalidCpu;
  };
  StealVictim FindStealVictim(CpuId thief);

 private:
  struct Shard {
    std::unique_ptr<GpsSchedulerBase> scheduler;
    // Relaxed atomic: mutated only under this shard's mutex or the lifecycle
    // lock, but read lock-free by peer shards scanning for the lightest or
    // heaviest shard (an approximate balance heuristic under concurrency,
    // exact when single-threaded).
    std::atomic<double> runnable_weight{0.0};
    // The shard's dispatch mutex (see the lock-order comment above).  The
    // host registers it with the lock-order validator under
    // kLockClassDispatch, rank == CPU id, so a blocking out-of-order
    // acquisition aborts in debug builds.
    common::Mutex mu;
    // SuggestPreemption's one-CPU elapsed vector for the inner policy,
    // reused across calls; guarded by `mu`, which every caller holds.
    std::vector<Tick> elapsed_scratch = std::vector<Tick>(1);
    // Stealable with its processor busy: counted in `steal_sources_`.
    // Guarded by `mu`.
    bool steal_source = false;
  };

  using Bitmap = std::vector<std::atomic<std::uint64_t>>;
  static bool TestBit(const Bitmap& bitmap, CpuId cpu) {
    const auto bit = static_cast<std::size_t>(cpu);
    return ((bitmap[bit / 64].load(std::memory_order_relaxed) >> (bit % 64)) & 1) != 0;
  }
  // Only `cpu`'s mutex holder writes its bit, so the plain read decides
  // whether the RMW (peers' bits share the word) is needed at all.
  static void AssignBit(Bitmap& bitmap, CpuId cpu, bool value) {
    const auto index = static_cast<std::size_t>(cpu);
    std::atomic<std::uint64_t>& word = bitmap[index / 64];
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if (((word.load(std::memory_order_relaxed) & bit) != 0) != value) {
      if (value) {
        word.fetch_or(bit, std::memory_order_relaxed);
      } else {
        word.fetch_and(~bit, std::memory_order_relaxed);
      }
    }
  }

  Shard& ShardAt(CpuId cpu) { return *shards_[static_cast<std::size_t>(cpu)]; }
  const Shard& ShardAt(CpuId cpu) const { return *shards_[static_cast<std::size_t>(cpu)]; }

  // Adds `delta` to a shard's runnable weight (writers are serialized by the
  // contract, so a plain read-modify-write store suffices).
  static void AddRunnableWeight(Shard& shard, double delta) {
    shard.runnable_weight.store(shard.runnable_weight.load(std::memory_order_relaxed) + delta,
                                std::memory_order_relaxed);
  }
  double RunnableWeightOf(CpuId cpu) const {
    return ShardAt(cpu).runnable_weight.load(std::memory_order_relaxed);
  }

  // Acquires `victim`'s shard mutex from a dispatcher already holding
  // `self`'s: blocking when victim > self (ascending lock order), try_lock
  // when victim < self.  The returned lock may be unowned (contended skip).
  common::UniqueMutexLock LockVictimShard(CpuId self, CpuId victim);

  // Lightest shard by runnable weight; ties go to the lowest CPU id.
  CpuId LightestShard() const;

  // Periodic surplus-aware repartitioning, counted in scheduling decisions.
  // Pull-based: `dispatching_cpu`'s shard pulls from the heaviest shard, so
  // migrated work is dispatched immediately (pushing toward an idle processor
  // with no pending dispatch would park it).  A triggered pass that cannot
  // act from this processor retries at the next decision.
  void MaybeRebalance(CpuId dispatching_cpu);

  // Steals FindStealVictim's choice into `thief` and dispatches it;
  // kInvalidThread when nothing is stealable.
  ThreadId TrySteal(CpuId thief);

  // Recomputes shard `cpu`'s stealable and runnable-shard bits and its
  // steal-source flag.  Called under that shard's mutex (or single-threaded)
  // after every change to its runnable count or busy state.
  void SyncShardBits(CpuId cpu);

  // Sets `shard`'s steal-source flag, keeping `steal_sources_` in step.
  // Under the shard's mutex.  Pick and charge change only the busy state,
  // so they update the flag alone.
  void SetStealSource(Shard& shard, bool steal_source);

  // Moves a runnable, not-running thread between shards with tag translation.
  void Migrate(ThreadId tid, CpuId from, CpuId to, bool steal);

  std::string name_;
  // Every shard's entities, by tid (see the header comment).  Declared
  // before `shards_` so the entities outlive the shards' intrusive queues.
  EntityTable entities_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // One bit per CPU each (see the header comment).
  Bitmap stealable_;
  Bitmap runnable_;
  // Shards whose `steal_source` is set.
  std::atomic<int> steal_sources_{0};
  std::atomic<int> decisions_since_rebalance_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::int64_t> rebalance_migrations_{0};
};

// One uniprocessor `Policy` instance per CPU behind the sharding machinery.
// `Policy` must report its LocalVirtualTime, which anchors tag translation at
// migration: Sfs and Sfq do; Wfq is flat-only.
template <typename Policy>
class Sharded : public ShardedScheduler {
 public:
  explicit Sharded(const SchedConfig& config)
      : ShardedScheduler(config, [](const SchedConfig& shard_config) {
          return std::make_unique<Policy>(shard_config);
        }) {}
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SHARDED_H_
