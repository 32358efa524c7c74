// Abstract multiprocessor scheduler interface.
//
// The interface mirrors the points where the Linux kernel invokes the scheduler in
// the paper's implementation (Section 3.1): thread arrival/departure, block/wakeup,
// weight changes, quantum expiry and dispatch.  The driver (discrete-event simulator
// in src/sim, or the real-thread executor in src/runtime) must follow this protocol:
//
//   * `PickNext(cpu)` selects a runnable, not-currently-running thread and marks it
//     running on `cpu`.  Each CPU dispatches independently — quanta on different
//     processors are not synchronized (Section 3.1).
//   * When the thread stops running for any reason (quantum expiry, blocking,
//     exit, preemption) the driver calls `Charge(tid, ran_for)` with the actual
//     time it ran.  Variable-length quanta are the norm: threads often block
//     before the quantum ends, and SFS is explicitly designed to not need the
//     quantum length at dispatch time (Section 2.3).
//   * `Block`/`RemoveThread` on a running thread must be preceded by `Charge`.
//
// All bookkeeping common to every policy (the thread table, runnable/running state,
// cumulative service accounting) lives here; concrete schedulers implement the
// `On*` hooks and the dispatch decision.
//
// Thread-safety contract (concurrent drivers, e.g. the per-CPU dispatcher
// threads of runtime::Executor):
//
//   * A Scheduler performs no internal synchronization of its own entry
//     points.  Single-threaded drivers (the simulator) call everything
//     directly, paying nothing.
//   * A concurrent driver brackets every call in one of two lock classes:
//       - LockDispatch(cpu) covers the dispatch path on that processor:
//         PickNext(cpu), Charge(tid) for the thread running on `cpu`, and
//         QuantumFor(tid) for the thread just picked there.  Flat policies
//         share one dispatch mutex (all per-CPU dispatch serializes — the
//         coarse global-lock contract); sched::Sharded overrides
//         DispatchMutex() with a per-shard mutex, so dispatch on different
//         CPUs proceeds concurrently and only cross-shard steal/migration
//         synchronizes internally (see sharded.h).
//       - LockLifecycle() covers everything else: AddThread, RemoveThread,
//         Block, Wakeup, SetWeight, SuggestPreemption, DetachEntity,
//         AttachEntity and any introspection that races with dispatch.  It
//         has one sanctioned relaxation: Block, Wakeup, SetWeight and
//         SuggestPreemption on a thread whose home shard the caller knows and
//         can pin (a blocked thread cannot migrate; a thread that just ran on
//         `cpu` is home on `cpu`'s shard) may be bracketed by
//         LockDispatch(home) alone — everything they touch is either guarded
//         by that shard's mutex or atomic (the runnable count).  Structural
//         mutations (Add/Remove/Detach/Attach) still take the full lifecycle
//         lock; that exclusivity is what makes entity-table reads safe for
//         holders of any single dispatch mutex.  sim::ParallelEngine's
//         wakeup/block hot path and runtime::Executor's wake path are built
//         on this relaxation: the executor's dispatcher that charges a
//         Block is the thread's home CPU; it files the wake deadline in its
//         own queue and, once it is due, applies Wakeup + SuggestPreemption
//         itself under its own LockDispatch(home), with no other thread
//         taking part.  LockLifecycle itself acquires every distinct
//         dispatch mutex, so it is exclusive against every concurrent
//         LockDispatch *and* other lifecycle calls, and a lifecycle holder
//         may additionally perform dispatch-path operations (the
//         Charge-then-Block sequence must be atomic or another dispatcher
//         could pick the thread in between).  Deliberately not a
//         reader-writer lock: with per-CPU dispatchers hammering the
//         dispatch path, a reader-preferring rwlock (glibc's default) can
//         starve wakeups for seconds.
//   * Entity-table reads under a single dispatch lock: a sharded host's
//     shards share one tid-indexed table (sched::Sharded), and a migration
//     between two shards rewrites the migrant's slot under those two
//     shards' mutexes only.  A holder of LockDispatch(cpu) alone may
//     therefore read the slot of a tid that cpu's shard currently holds —
//     every write to that slot needs the lock it holds — but never the slot
//     of a tid that may have left the shard since the lock was last
//     released: to ask whether such a tid is still here, walk the shard's
//     own runnable queue (GpsSchedulerBase::FindRunnable).  The table's
//     size changes only in AddThread, under the exclusive lifecycle lock.
//   * Lock order: dispatch mutexes are only ever *waited on* in ascending
//     CPU-id order (LockLifecycle and the sharded steal path both follow
//     this; out-of-order acquisitions use try_lock), so no cycle of blocking
//     waits can form.
//
// Enforcement (DESIGN.md §11): every mutex here is a common::Mutex.  Because
// drivers may legitimately call every entry point with *no* locks held
// (single-threaded simulators), the public methods carry no REQUIRES
// annotations — the static analysis enforces the unconditionally-locked
// subsystems (executor, metrics, epoch barrier), while this dynamic contract
// is enforced at runtime by the lock-order validator (common/mutex.h):
// sched::Sharded registers its per-shard mutexes under kLockClassDispatch
// with rank == CPU id, so any blocking out-of-order acquisition aborts in
// debug builds, on any interleaving, process-wide.

#ifndef SFS_SCHED_SCHEDULER_H_
#define SFS_SCHED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/time.h"
#include "src/obs/trace.h"
#include "src/sched/entity.h"
#include "src/sched/types.h"

namespace sfs::sched {

class Scheduler {
 public:
  explicit Scheduler(const SchedConfig& config);
  virtual ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Short policy name ("SFS", "SFQ", ...), used in benchmark output.
  virtual std::string_view name() const = 0;

  const SchedConfig& config() const { return config_; }
  int num_cpus() const { return config_.num_cpus; }

  // --- Concurrency (see the thread-safety contract above) ---------------------

  // Movable guards (common/mutex.h): the lock set is dynamic, so these are
  // invisible to the static analysis and policed by the runtime validator.
  using DispatchGuard = common::UniqueMutexLock;
  // All distinct dispatch mutexes, held in ascending CPU-id order.
  using LifecycleGuard = std::vector<common::UniqueMutexLock>;

  // Acquires the lock covering PickNext/Charge/QuantumFor on `cpu`.
  DispatchGuard LockDispatch(CpuId cpu);

  // Acquires the exclusive lock covering every other entry point (and, while
  // held, the dispatch path on any CPU as well).
  LifecycleGuard LockLifecycle();

  // --- Thread lifecycle -------------------------------------------------------

  // Registers a new thread; it becomes runnable immediately.  `tid` must be unused.
  void AddThread(ThreadId tid, Weight weight);

  // As AddThread, with a placement hint: partitioned/sharded policies admit
  // the thread to shard `home` instead of their load-balanced choice, making
  // placement a pure function of the workload (the parallel engine's
  // partitioned determinism contract).  Flat policies ignore the hint; an
  // out-of-range or kInvalidCpu hint falls back to plain AddThread.
  void AddThread(ThreadId tid, Weight weight, CpuId home);

  // Unregisters a thread (exit).  Must not be currently running (Charge first).
  void RemoveThread(ThreadId tid);

  // Thread blocked (I/O, sleep).  Must be runnable and not running (Charge first).
  void Block(ThreadId tid);

  // Blocked thread became runnable again.
  void Wakeup(ThreadId tid);

  // Changes a thread's weight on the fly (the setweight system call, Section 3.1).
  void SetWeight(ThreadId tid, Weight weight);

  // --- Dispatch ---------------------------------------------------------------

  // Chooses the next thread to run on `cpu` and marks it running there.  Returns
  // kInvalidThread if there is no eligible thread.  `cpu` must be free
  // (the driver must Charge the previous thread first).
  ThreadId PickNext(CpuId cpu);

  // Accounts `ran_for` ticks of CPU time to the running thread `tid` and releases
  // its processor.  The thread stays runnable (preemption / quantum expiry) unless
  // the driver follows up with Block or RemoveThread.
  void Charge(ThreadId tid, Tick ran_for);

  // Maximum quantum the driver should grant this thread at dispatch.  Defaults to
  // config().quantum; the time-sharing baseline returns its remaining timeslice.
  virtual Tick QuantumFor(ThreadId tid);

  // Asks whether dispatching the just-woken/arrived thread `woken` warrants
  // preempting a running thread; returns the CPU to preempt or kInvalidCpu.
  // Mirrors Linux's reschedule_idle() as invoked from the timer tick: the driver
  // supplies `elapsed[cpu]` = uncharged run time of the thread currently on each
  // CPU, so policies can evaluate up-to-date tags/counters.  Policies override
  // with their own criterion; the default never preempts.
  virtual CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed);

  // Word `word` of the mask of CPUs on which PickNext may act: bit (cpu % 64)
  // of word (cpu / 64).  A clear bit promises that PickNext(cpu) on a free
  // `cpu` would return kInvalidThread and change no state, so a driver may
  // skip the call (sim::Engine does).  Bits past num_cpus() are unspecified.
  // The default sets every bit; sched::Sharded clears the bits of shards
  // with nothing to dispatch or steal.  Exact for single-threaded drivers.
  virtual std::uint64_t PickMask(std::size_t word) const {
    (void)word;
    return ~std::uint64_t{0};
  }

  // The CPU whose LockDispatch satisfies the sanctioned lifecycle relaxation
  // for `tid` — i.e. the dispatch mutex that alone covers
  // Block/Wakeup/SetWeight/SuggestPreemption on it.  Flat policies return
  // kInvalidCpu meaning *any* CPU works (they have one dispatch mutex, so
  // every LockDispatch is the lock); sched::Sharded returns the thread's
  // current shard.  Call while holding LockDispatch on the result (or
  // LockLifecycle); for a *blocked* thread the answer is additionally stable
  // without any lock — a blocked thread cannot migrate.  That stability is
  // what lets sfs::runtime leave every wakeup to the CPU that charged the
  // Block: that CPU's dispatcher files the wake deadline and applies it
  // under its own LockDispatch, and a debug check there asserts HomeCpu
  // agrees.
  virtual CpuId HomeCpu(ThreadId tid) const {
    (void)tid;
    return kInvalidCpu;
  }

  // --- Migration protocol (sched::Sharded) ------------------------------------
  //
  // A sharded host moves a thread between two uniprocessor scheduler instances
  // by detaching its entity from the source (which dequeues it and forgets it,
  // but preserves every field: weight, tags, runnable/blocked state, cumulative
  // service), re-expressing the tags in the destination's virtual time, and
  // attaching it to the destination.  The thread must not be running.

  // Removes `tid` from this scheduler and returns its entity intact.
  std::unique_ptr<Entity> DetachEntity(ThreadId tid);

  // Adopts a detached entity, preserving its (already translated) tags.  The
  // tid must be unused here.  Runnable entities are enqueued via OnAttach.
  void AttachEntity(std::unique_ptr<Entity> entity);

  // This scheduler's virtual timeline origin for tag translation: the GPS
  // policies return their system virtual time (minimum start tag over
  // runnable threads); policies without virtual-time tags return 0.
  virtual double LocalVirtualTime() const { return 0.0; }

  // --- Introspection ----------------------------------------------------------

  bool Contains(ThreadId tid) const;
  bool IsRunnable(ThreadId tid) const;
  bool IsRunning(ThreadId tid) const;
  Weight GetWeight(ThreadId tid) const;
  // Instantaneous (readjusted) weight phi_i; equals GetWeight for feasible
  // assignments or non-GPS policies.
  Weight GetPhi(ThreadId tid) const;
  Tick TotalService(ThreadId tid) const;
  ThreadId RunningOn(CpuId cpu) const;
  int runnable_count() const { return runnable_count_.load(std::memory_order_relaxed); }
  int thread_count() const { return static_cast<int>(live_.size()); }

  // Conservative-epoch synchronization hook (sim::ParallelEngine): invoked
  // once per epoch boundary, single-threaded, with every worker parked at the
  // barrier, at simulated time `now`.  No policy in the library overrides it
  // (migration translates tags from the shards' live virtual times); it is a
  // seam for observers, such as perfbench's timing wrapper, which stamps epoch
  // lengths here.  Must not change any scheduling decision — single-threaded
  // drivers never call it.
  virtual void OnEpochBoundary(Tick now) { (void)now; }

  // Threads the scheduler itself moved between internal shards: idle-pull
  // steals and periodic rebalance migrations (sched::Sharded).  Flat policies
  // report zero; the simulation engine mirrors `steals` into its counters.
  virtual std::int64_t steals() const { return 0; }
  virtual std::int64_t shard_migrations() const { return 0; }

  // --- Observability -----------------------------------------------------------

  // Attaches a trace the scheduler records its own events into: steal and
  // rebalance migrations (sched::Sharded) and weight-readjustment passes (GPS
  // policies).  Records are stamped with the trace's now-hint, which the
  // driver publishes (sim ticks from the engine, wall nanoseconds from the
  // executor).  nullptr (the default) disables recording at the cost of one
  // predicted branch per site.  Not propagated to internal shard instances —
  // the sharded host records the cross-shard events itself.
  void SetTrace(obs::Trace* trace) { trace_ = trace; }
  obs::Trace* trace() const { return trace_; }

 protected:
  // Policy hooks.  The base class has already updated the generic state
  // (runnable/running flags, accounting) when these are invoked.
  virtual void OnAdmit(Entity& e) = 0;           // new thread, already runnable
  virtual void OnRemove(Entity& e) = 0;          // thread leaving (runnable or blocked)
  virtual void OnBlocked(Entity& e) = 0;         // runnable -> blocked
  virtual void OnWoken(Entity& e) = 0;           // blocked -> runnable
  virtual void OnWeightChanged(Entity& e, Weight old_weight) = 0;  // weight updated
  virtual Entity* PickNextEntity(CpuId cpu) = 0;  // dispatch decision
  virtual void OnCharge(Entity& e, Tick ran_for) = 0;  // tag/accounting update

  // A detached entity arriving via AttachEntity (runnable, tags already
  // translated into this scheduler's timeline).  The default reuses the wakeup
  // path: every GPS policy's OnWoken applies `tag = max(tag, v)`, which leaves
  // a translated tag (>= v by construction) untouched while enqueueing.
  virtual void OnAttach(Entity& e) { OnWoken(e); }

  // The mutex LockDispatch(cpu) takes after the shared state lock.  The base
  // returns one scheduler-wide mutex (flat policies touch shared queues from
  // every CPU's dispatch, so they must serialize); sched::Sharded returns the
  // per-shard mutex so independent shards dispatch concurrently.  CPUs that
  // share a mutex must be adjacent in CPU-id order: LockLifecycle dedups
  // against the mutex it locked last.
  virtual common::Mutex& DispatchMutex(CpuId cpu);

  // Lookup helpers; CHECK-fail on a tid this scheduler does not hold.
  Entity& FindEntity(ThreadId tid);
  const Entity& FindEntity(ThreadId tid) const;

  // Entities currently running, indexed by CPU (kInvalidThread slots are free CPUs).
  const std::vector<ThreadId>& running_threads() const { return running_; }

  // Observability sink; nullptr when tracing is off (the common case).
  obs::Trace* trace_ = nullptr;

  // Iterates all known entities (any state); order unspecified.
  template <typename Fn>
  void ForEachEntity(Fn&& fn) {
    for (Entity* entity : live_) {
      fn(*entity);
    }
  }
  template <typename Fn>
  void ForEachEntity(Fn&& fn) const {
    for (const Entity* entity : live_) {
      fn(*entity);
    }
  }

 private:
  // The sharded host points its shards at its shared table.
  friend class ShardedScheduler;

  // ThreadId-indexed entity slots (tids are dense small integers; a vector
  // index beats a hash probe on every Charge/Block/Wakeup).
  using EntityTable = std::vector<std::unique_ptr<Entity>>;

  // Files this scheduler's entities in `table` instead of its own.  Only
  // before the first entity is stored.
  void ShareEntityTable(EntityTable& table);

  // The entity filed under `tid` if this scheduler holds it, else nullptr.
  Entity* Lookup(ThreadId tid) const;

  // Files `entity` under its tid and into the live list.
  void StoreEntity(std::unique_ptr<Entity> entity);
  // Unfiles `e` (swap-and-pop on the live list) and returns its ownership.
  std::unique_ptr<Entity> ReleaseEntity(Entity& e);

  SchedConfig config_;
  // The entity table: `own_table_` for a flat scheduler; for a shard of
  // sched::Sharded, the host's table, which files every shard's entities,
  // so memory is O(t + p) rather than O(t x p).  A slot is this scheduler's
  // only if the live list below files it (Lookup checks through
  // live_index), which keeps a peer shard's entity invisible here.
  EntityTable own_table_;
  EntityTable* table_ = &own_table_;
  // The dense set of this scheduler's entities, for iteration and ownership.
  std::vector<Entity*> live_;
  std::vector<ThreadId> running_;
  // Relaxed atomic: Block/Wakeup run under per-shard dispatch mutexes in the
  // parallel engine, so increments on different shards race as plain ints.
  // The count itself needs no cross-shard ordering — readers want a tally,
  // not a synchronization point.
  std::atomic<int> runnable_count_{0};

  // Concurrency contract state; untouched unless a driver uses the Lock* API.
  mutable common::Mutex dispatch_mu_;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SCHEDULER_H_
