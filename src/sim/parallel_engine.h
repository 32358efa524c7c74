// Parallel sharded discrete-event simulation engine.
//
// sim::Engine is single-threaded: one event loop drives every simulated
// processor, so a 1M-thread x 1024-CPU simulation is bounded by one host
// core.  ParallelEngine shards that loop along the same per-CPU boundaries
// as sched::ShardedScheduler: each simulation *worker* owns a contiguous
// block of simulated CPUs and runs a private event loop over them — its own
// timing wheel, its own clock, its own counters — synchronizing with its
// peers only at conservative epoch barriers (DESIGN.md §10).
//
// Synchronization model (conservative, epoch-barrier PDES):
//
//   * Simulated time is cut into epochs of `epoch` ticks.  Within an epoch a
//     worker processes its own events freely; cross-worker interaction goes
//     through the scheduler's own locks (per-shard dispatch mutexes for
//     steal / rebalance, the full lifecycle lock for arrivals and exits), so
//     it is always *safe*, merely not time-ordered across workers.
//   * At each epoch boundary every worker parks on a barrier; the last
//     arriver runs Scheduler::OnEpochBoundary(now) single-threaded (an
//     observer's hook; no library policy acts there), then all workers enter
//     the next epoch together.
//   * A wakeup whose home shard belongs to another worker is mailed through
//     a per-(target, source) MPSC mailbox (common::MpscMailbox) and drained
//     at the target's next epoch start, in source order, with the wakeup
//     time clamped forward to the epoch start.  This only arises when the
//     scheduler's placement diverges from the engine's arrival routing
//     (e.g. a task that arrives asleep without a home hint); partitioned
//     workloads with home hints never mail.
//   * At each epoch start a worker re-dispatches its idle CPUs ("idle
//     kick"), bounding how long queued or stealable work can sit unserved
//     because the event that made it runnable belonged to another worker.
//
// Determinism contract (DESIGN.md §10):
//
//   * workers == 1 runs inline on the calling thread — no threads, no
//     barriers, no mail, no kicks — and reproduces sim::Engine's schedule,
//     run-interval stream and lifecycle stream byte-identically for every
//     policy.  The serial engine stays on as the determinism oracle.
//   * workers > 1 with a *partitioned* sharded policy (stealing off,
//     rebalance off, coupling 0, every task carrying a home hint) evolves
//     each worker's shard group exactly as the serial engine does: an idle
//     CPU's shard holds no queued runnable work, so cross-group dispatch
//     attempts are no-ops and per-group event streams are byte-identical to
//     the oracle's group subsequences — at any worker count, on reruns.
//   * workers > 1 with stealing/rebalancing policies is *boundedly
//     divergent*: every schedule it produces is one the serial engine could
//     have produced under a different (still legal, unsynchronized-quanta)
//     event interleaving, with cross-worker placement delayed by at most one
//     epoch.  Fairness deviations stay GMS-bounded; exact schedules differ
//     run to run.  Conservation invariants (arrivals == departures + live,
//     every grant charged) hold in every mode.
//
// Concurrency restrictions at workers > 1 (checked where practical):
//   * AddTaskAt / KillTask / ReserveTasks only while quiescent (outside
//     RunUntil).  Periodic hooks require workers == 1.
//   * Exit hooks run on simulation workers and must not touch the engine.
//   * Hooks receive the worker id; per-worker accumulation needs no locks.

#ifndef SFS_SIM_PARALLEL_ENGINE_H_
#define SFS_SIM_PARALLEL_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/mpsc_mailbox.h"
#include "src/common/mutex.h"
#include "src/common/slot_arena.h"
#include "src/common/time.h"
#include "src/common/timing_wheel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sched/scheduler.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace sfs::sched {
class ShardedScheduler;
}  // namespace sfs::sched

namespace sfs::sim {

struct ParallelEngineConfig {
  // Simulation worker threads.  Each owns num_cpus/workers simulated CPUs
  // (must satisfy 1 <= workers <= num_cpus).  1 == the serial oracle path.
  int workers = 1;

  // Epoch length in ticks (workers > 1 only): the conservative
  // synchronization horizon.  Longer epochs amortize barriers; shorter
  // epochs tighten cross-worker placement latency and virtual-time skew.
  Tick epoch = Msec(10);

  // Cost model knobs, exactly as EngineConfig (engine.h documents them).
  Tick context_switch_cost = 0;
  Tick cache_restore_per_kb = 0;

  // Observability.  At workers > 1 the trace needs per-worker lifecycle
  // rings (added automatically) and `metrics` must have been built with at
  // least `workers` shards (checked); per-CPU rings stay single-writer
  // because ring c is only ever written by the worker owning CPU c.
  obs::Trace* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class ParallelEngine {
 public:
  ParallelEngine(sched::Scheduler& scheduler, ParallelEngineConfig config = {});
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  // --- workload setup ---------------------------------------------------------

  // Schedules `task` to arrive at absolute time `at` >= now.  The arrival is
  // routed to the worker owning the task's home_cpu() hint; hintless tasks
  // round-robin across workers.  workers > 1: quiescent only (the serial
  // path also accepts it from exit hooks, exactly like sim::Engine).
  void AddTaskAt(Tick at, std::unique_ptr<Task> task);

  // Pre-sizes the task arena, tid index and per-worker event pools; a pure
  // allocation hint, never a requirement.
  void ReserveTasks(std::size_t task_count);

  // Periodic hooks would race every worker's clock; serial path only.
  void AddPeriodicHook(Tick period, std::function<void(ParallelEngine&)> fn);

  // Exit hook; at workers > 1 it runs on whichever worker retires the task
  // and must be thread-safe and engine-read-only.
  void SetExitHook(std::function<void(ParallelEngine&, Task&)> fn);

  // Lifecycle / run-interval observers, as sim::Engine but with the worker
  // id prepended so callers keep per-worker accumulators (fingerprints).
  void SetSchedEventHook(std::function<void(int, SchedEvent, const Task&, Tick)> fn);
  void SetRunIntervalHook(
      std::function<void(int, Tick, Tick, sched::CpuId, sched::ThreadId)> fn);

  // --- execution --------------------------------------------------------------

  // Runs the simulation until `until` inclusive.  workers == 1: inline,
  // byte-identical to sim::Engine.  workers > 1: spawns the workers, runs
  // the epoch loop, joins them before returning.
  void RunUntil(Tick until);

  // Terminates a task immediately (sim::Engine::KillTask semantics).
  // workers > 1: quiescent only; serial path: also from hooks mid-run.
  void KillTask(sched::ThreadId tid);

  // --- introspection (quiescent, or serial path) ------------------------------

  Tick now() const { return now_; }
  int workers() const { return config_.workers; }
  sched::Scheduler& scheduler() { return scheduler_; }

  const Task& task(sched::ThreadId tid) const;
  Task& task(sched::ThreadId tid);
  bool HasTask(sched::ThreadId tid) const;
  Tick Service(sched::ThreadId tid) const { return task(tid).service(); }
  Tick ServiceIncludingRunning(sched::ThreadId tid) const;

  template <typename Fn>
  void ForEachTask(Fn&& fn) const {
    tasks_.ForEach(fn);
  }

  // Aggregates over all workers.
  std::int64_t context_switches() const { return SumCounter(&Worker::context_switches); }
  std::int64_t dispatches() const { return SumCounter(&Worker::dispatches); }
  std::int64_t preemptions() const { return SumCounter(&Worker::preemptions); }
  std::int64_t migrations() const { return SumCounter(&Worker::migrations); }
  std::int64_t events_processed() const { return SumCounter(&Worker::events_processed); }
  // Scheduler-side steals during this engine's lifetime (steals happen only
  // inside PickNext, so the scheduler's counter is exact; per-worker deltas
  // would double-count under concurrency).
  std::int64_t steals() const { return scheduler_.steals() - steals_at_ctor_; }
  // Wakeups that crossed a worker boundary through a mailbox.
  std::int64_t mailed_wakeups() const { return SumCounter(&Worker::mailed_wakeups); }
  // Epoch barriers crossed (0 on the serial path).
  std::int64_t epochs() const { return epochs_; }
  Tick total_context_switch_cost() const;
  Tick idle_time() const;

 private:
  using TaskSlot = common::SlotArena<Task>::SlotId;

  enum class EventKind : std::uint8_t { kArrival, kWakeup, kCpuTimer, kPeriodic };

  // Field-compatible with sim::Engine's event so the wheels are exercised
  // identically.  `stamp` carries the timer generation for kCpuTimer and the
  // home shard (the dispatch-mutex key for the wakeup-path lock relaxation,
  // scheduler.h) for kWakeup.
  struct Event {
    Tick time = 0;
    std::uint64_t seq = 0;
    EventKind kind = EventKind::kArrival;
    std::int32_t a = 0;
    std::uint64_t stamp = 0;
  };

  struct Cpu {
    sched::ThreadId running = sched::kInvalidThread;
    TaskSlot running_slot = 0;
    sched::ThreadId last_thread = sched::kInvalidThread;
    Tick dispatch_time = 0;
    Tick switch_cost = 0;
    Tick run_start = 0;
    Tick quantum_end = 0;
    Tick burst_end = 0;
    std::uint64_t timer_stamp = 0;
    Tick idle_since = 0;
    Tick idle_accum = 0;
  };

  struct PeriodicHook {
    Tick period = 0;
    std::function<void(ParallelEngine&)> fn;
  };

  // A wakeup crossing worker boundaries: deliver task `slot` at `time`,
  // locking shard `home` (clamped forward to the receiving epoch's start).
  struct Mail {
    TaskSlot slot = 0;
    Tick time = 0;
    sched::CpuId home = sched::kInvalidCpu;
  };

  // Per-worker simulation state.  Only the owning worker thread touches any
  // of it during a parallel run (mailboxes aside, which are MPSC by design).
  struct Worker {
    // Mailboxes are sized up front: MpscMailbox is self-referential (its stub
    // node anchors the list), so the vector may never relocate one.
    explicit Worker(int nworkers) : mail(static_cast<std::size_t>(nworkers)) {}

    int id = 0;
    sched::CpuId cpu_begin = 0;  // owned simulated CPUs: [cpu_begin, cpu_end)
    sched::CpuId cpu_end = 0;
    Tick now = 0;
    std::uint64_t next_seq = 0;
    common::TimingWheel<Event> wheel;
    // mail[source]: wakeups sent to this worker by worker `source`.
    std::vector<common::MpscMailbox<Mail>> mail;
    std::vector<Tick> preempt_elapsed;  // reused SuggestPreemption scratch

    std::int64_t context_switches = 0;
    std::int64_t dispatches = 0;
    std::int64_t preemptions = 0;
    std::int64_t migrations = 0;
    std::int64_t events_processed = 0;
    std::int64_t mailed_wakeups = 0;
    Tick total_ctx_cost = 0;
  };

  // Mutex/condvar epoch barrier; the completion function runs exclusively
  // (every other worker parked) — the single-threaded window OnEpochBoundary
  // is specified against.
  class EpochBarrier {
   public:
    explicit EpochBarrier(int count) : count_(count) {}
    template <typename Fn>
    void ArriveAndWait(Fn&& completion) {
      common::MutexLock lock(mu_);
      const std::uint64_t generation = generation_;
      if (++waiting_ == count_) {
        completion();
        waiting_ = 0;
        ++generation_;
        cv_.NotifyAll();
        return;
      }
      while (generation_ == generation) {
        cv_.Wait(mu_);
      }
    }

   private:
    common::Mutex mu_;
    common::CondVar cv_;
    int count_;
    int waiting_ SFS_GUARDED_BY(mu_) = 0;
    std::uint64_t generation_ SFS_GUARDED_BY(mu_) = 0;
  };

  int OwnerOf(sched::CpuId cpu) const {
    return owner_of_cpu_[static_cast<std::size_t>(cpu)];
  }

  TaskSlot SlotFor(sched::ThreadId tid) const;

  // Empty (no-op) guards on the serial path: workers == 1 must not pay for —
  // or be reordered by — locks nobody contends.
  sched::Scheduler::DispatchGuard LockDispatchIf(sched::CpuId cpu) {
    return locked_ ? scheduler_.LockDispatch(cpu) : sched::Scheduler::DispatchGuard();
  }
  sched::Scheduler::LifecycleGuard LockLifecycleIf() {
    return locked_ ? scheduler_.LockLifecycle() : sched::Scheduler::LifecycleGuard();
  }

  void Push(Worker& w, Tick time, EventKind kind, std::int32_t a,
            std::uint64_t stamp = 0);
  // Routes a wakeup for `slot` at `time` to the worker owning shard `home`:
  // the local wheel when that is `w`, the mailbox pair otherwise.
  void PushWakeup(Worker& w, TaskSlot slot, Tick time, sched::CpuId home);

  void RunWorker(Worker& w, Tick start, Tick until, EpochBarrier& barrier);
  void RunLocal(Worker& w, Tick bound);
  void DrainMail(Worker& w, Tick epoch_start);
  void IdleKick(Worker& w);

  void DispatchEvent(Worker& w, const Event& ev);
  void HandleArrival(Worker& w, TaskSlot slot);
  void HandleWakeup(Worker& w, TaskSlot slot, sched::CpuId home);
  void HandleCpuTimer(Worker& w, sched::CpuId cpu_id, std::uint64_t stamp);
  void HandlePeriodic(Worker& w, std::size_t idx);

  // `home` is the woken/arrived thread's home shard — the dispatch-mutex key
  // for SuggestPreemption under the lock relaxation (scheduler.h).
  void PlaceRunnable(Worker& w, sched::ThreadId tid, sched::CpuId home);
  void StopRunning(Worker& w, sched::CpuId cpu_id);
  void Dispatch(Worker& w, sched::CpuId cpu_id);

  void NotifySchedEvent(Worker& w, SchedEvent event, const Task& task) {
    if (sched_event_hook_) {
      sched_event_hook_(w.id, event, task, w.now);
    }
    if (trace_) [[unlikely]] {
      if (locked_) {
        trace_->RecordLifecycleOnWorker(w.id, static_cast<obs::TraceEventKind>(event),
                                        w.now, task.tid());
      } else {
        trace_->RecordLifecycle(static_cast<obs::TraceEventKind>(event), w.now,
                                task.tid());
      }
    }
  }

  std::int64_t SumCounter(std::int64_t Worker::* member) const {
    std::int64_t total = 0;
    for (const auto& w : workers_) {
      total += (*w).*member;
    }
    return total;
  }

  sched::Scheduler& scheduler_;
  // Non-null when the scheduler is sharded: home shards are then meaningful
  // (ShardOf routes cross-worker wakeups; flat schedulers serialize on one
  // dispatch mutex and keep every wakeup local).
  sched::ShardedScheduler* sharded_ = nullptr;
  ParallelEngineConfig config_;
  obs::Trace* trace_;
  obs::LogHistogram* quantum_hist_ = nullptr;
  obs::LogHistogram* run_hist_ = nullptr;
  const bool locked_;  // workers > 1: bracket scheduler calls in its locks
  Tick now_ = 0;       // quiescent clock; the live clock is per-worker
  bool parallel_running_ = false;
  std::int64_t steals_at_ctor_ = 0;
  std::int64_t epochs_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> owner_of_cpu_;
  common::SlotArena<Task> tasks_;
  std::vector<std::int32_t> tid_to_slot_;
  std::vector<Cpu> cpus_;
  std::vector<PeriodicHook> periodic_hooks_;
  std::uint64_t arrival_rr_ = 0;  // hintless-arrival round-robin cursor

  std::function<void(ParallelEngine&, Task&)> exit_hook_;
  std::function<void(int, SchedEvent, const Task&, Tick)> sched_event_hook_;
  std::function<void(int, Tick, Tick, sched::CpuId, sched::ThreadId)> run_interval_hook_;
};

}  // namespace sfs::sim

#endif  // SFS_SIM_PARALLEL_ENGINE_H_
