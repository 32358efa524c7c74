// sfs::runtime — the user-level scheduling runtime.
//
// Runs genuine std::threads under the control of any sched::Scheduler,
// mirroring the kernel arrangement at user level:
//
//   * at most `num_cpus` workers are granted the CPU at once (the
//     "processors");
//   * one dispatcher thread *per CPU* plays the role of that processor's
//     scheduler invocation: it picks, grants, times the quantum, sets the
//     worker's preempt flag on expiry, charges the scheduler with the
//     *measured* run time, and dispatches the next pick — concurrently with
//     every other CPU's dispatcher, exactly as kernel CPUs run schedule() in
//     parallel (Section 3.1: quanta on different processors are not
//     synchronized);
//   * each dispatcher also times the simulated-I/O completions of the
//     threads it blocked: tasks may return WorkResult::Block(d) to sleep, the
//     scheduler sees Block/Wakeup, and the runtime stays work-conserving;
//   * preemption is cooperative: worker bodies perform a small unit of work
//     per call and re-check the flag, like a kernel preemption point.
//
// Wake and dispatch mechanics:
//
//   * PARKING — each dispatcher owns a common::ParkingSlot (futex on Linux,
//     condvar fallback).  An idle CPU parks on its own slot; a kick wakes
//     exactly one targeted CPU instead of broadcasting through a process-wide
//     condition variable (1.01 vs 30.18 kicks per wakeup at p=8).  The
//     Prepare-token-before-final-look protocol (parking.h) makes a kick that
//     races between an empty pick and the park impossible to lose.
//   * WAKEUP TIMING — the dispatcher that charges a Block is the blocked
//     thread's *home* CPU (a blocked thread cannot migrate, and that CPU's
//     LockDispatch covers the lifecycle relaxation of the scheduler
//     contract), so it files the wake deadline in its own private queue and
//     applies it itself.  No other thread touches the queue, so it needs no
//     lock, and traced and untraced runs take the same path.
//   * DECISION BATCHING — the dispatcher applies its due wakeups (Wakeup +
//     SuggestPreemption each) and runs PickNext under ONE LockDispatch hold.
//     Preempt pokes suggested there are applied after the hold is released
//     (the runtime never holds a dispatch mutex and a Cpu::mu together — see
//     the lock-order note below).  Each slice's charge takes its own
//     LockDispatch hold as the slice ends.
//   * Both of a dispatcher's waits end at its next wake deadline: the idle
//     park, and the mid-quantum report wait, which then applies the due
//     wakeups under LockDispatch, applies pokes, passes the baton and resumes
//     waiting.  A wakeup whose home CPU is busy therefore still becomes
//     runnable on time (and may preempt, or be stolen by a kicked peer)
//     rather than languishing until the current slice ends.
//
// Work conservation with single kicks: a wakeup needs no kick, since its
// home dispatcher's own deadline delivers it; after a state change, the
// dispatcher passes the baton — if runnable work remains beyond what is
// running, it kicks one more parked CPU (round-robin) so queued work fans out
// one CPU at a time instead of waking the whole herd.  A parked dispatcher
// also re-checks after one quantum as a belt-and-braces backstop, so a missed
// heuristic kick costs at most one quantum, not liveness.  Only shutdown
// kicks every slot.
//
// Lock order (validated in debug builds): dispatch mutexes < everything
// else.  Cpu::mu and Worker::mu are leaf locks; the runtime never acquires a
// scheduler lock while holding them, and never acquires them while holding a
// scheduler lock.  Preempt pokes discovered under LockDispatch are therefore
// parked in a per-dispatcher scratch vector and applied after the guard is
// released.
//
// Scheduler calls follow the sched::Scheduler thread-safety contract
// (scheduler.h).  The runtime uses the contract's sanctioned lifecycle
// relaxation: Block for a thread that just ran on this CPU and Wakeup for a
// thread whose home shard this dispatcher holds are bracketed by
// LockDispatch(home) alone; thread exit keeps the exclusive LockLifecycle.
// Trace discipline follows from that: block/wakeup records go to the acting
// dispatcher's own per-CPU ring (single writer), not the lifecycle ring.
//
// This is how the repository demonstrates real proportional sharing on the
// host (examples/realtime_exec, examples/blocking_workload,
// examples/runtime_quickstart) and how Table 1's context-switch latencies get
// a real-code analogue (bench/table1): the dispatch latency measured here
// includes the actual scheduler data-structure work plus any lock contention
// between concurrent dispatchers.

#ifndef SFS_RUNTIME_EXECUTOR_H_
#define SFS_RUNTIME_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/parking.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sched/scheduler.h"

namespace sfs::runtime {

class Executor {
 public:
  struct Config {
    // Quantum handed to each dispatch.  Shorter than the kernel's 200 ms
    // default so that demo runs interleave visibly.
    Tick quantum = Msec(20);

    // Pin each dispatcher thread to core (cpu % hardware cores) so shard c
    // lives on core c — kernel-style shard-to-core placement.  Dispatch and
    // park/kick still work unpinned; pinning removes OS migrations of the
    // dispatcher itself (bench/table1 measures the difference).  Ignored on
    // platforms without an affinity syscall.
    bool pin_dispatchers = false;

    // Observability sink (wall-nanosecond clock domain; Clock must be
    // kWallNanos and the trace must have at least the scheduler's num_cpus
    // rings).  Each dispatcher records pick/lock-wait spans, grants, run
    // slices, preemptions and the block/wakeup transitions it applies into
    // its own CPU ring; arrivals and departures go to the lifecycle ring
    // under the lifecycle lock.  nullptr (the default) costs one predicted
    // branch per site; attached or not, the executor takes the same wake and
    // dispatch paths (recording never changes a decision).
    obs::Trace* trace = nullptr;

    // Metrics registry the latency histograms live in.  When null the
    // executor creates a private registry; pass a shared one so experiments
    // serialize the histograms through the Reporter.  Must be sharded at
    // least num_cpus ways.
    obs::MetricsRegistry* metrics = nullptr;
  };

  // Outcome of one work unit: keep running, finish, or sleep on simulated I/O
  // for `block_for` ticks (the dispatcher that charged the Block wakes the task
  // afterwards).
  struct WorkResult {
    enum class Kind { kContinue, kDone, kBlock };

    static WorkResult Continue() { return {Kind::kContinue, 0}; }
    static WorkResult Done() { return {Kind::kDone, 0}; }
    static WorkResult Block(Tick block_for) { return {Kind::kBlock, block_for}; }

    Kind kind = Kind::kContinue;
    Tick block_for = 0;
  };

  // The scheduler decides who runs; its num_cpus() bounds concurrency.
  Executor(sched::Scheduler& scheduler, const Config& config);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Registers a worker before Run().  `work` is invoked repeatedly while the
  // task holds a CPU; each call should do a small unit (tens of microseconds)
  // of work and report through its WorkResult whether to continue, finish, or
  // block.  Task ids should be small and dense: dispatch routing uses a
  // tid-indexed flat vector (the scheduler's entity-table idiom).
  void AddTask(sched::ThreadId tid, sched::Weight weight,
               std::function<WorkResult()> work);

  // Convenience overload: `work` returns true to continue, false when done
  // (never blocks).
  void AddTask(sched::ThreadId tid, sched::Weight weight, std::function<bool()> work);

  // Runs until every task finishes or `wall_limit` elapses.  Returns the wall
  // time actually spent (ticks).
  Tick Run(Tick wall_limit);

  // Measured CPU time granted to a task (ticks of wall time while scheduled).
  Tick CpuTime(sched::ThreadId tid) const;

  // Latency from preempt-flag set to the worker actually yielding; a user-level
  // proxy for context-switch cost.  Computed from raw steady_clock time points
  // (flag-set and yield instants are subtracted *before* any truncation to
  // ticks, so the samples carry no quantization bias).
  const common::SampleSet& preempt_latencies() const { return preempt_latencies_; }

  // Latency of one scheduling decision in NANOSECONDS: acquiring the dispatch
  // lock (including any contention with other CPUs' dispatchers) plus
  // applying the due wakeups plus PickNext.  Idle picks (nothing runnable) are
  // not sampled.  Accumulated in a bounded per-CPU obs::LogHistogram rather
  // than an unbounded sample vector, so arbitrarily long runs cost constant
  // memory; the snapshot keeps the count/mean/min/max/Percentile shape of the
  // SampleSet it replaced.
  obs::HistogramSnapshot dispatch_latencies() const { return dispatch_hist_->Snapshot(); }

  // Time spent waiting to acquire the dispatch lock alone (nanoseconds); the
  // contention component of dispatch_latencies(), sampled on every acquisition
  // including idle picks.
  obs::HistogramSnapshot lock_wait_latencies() const { return lock_wait_hist_->Snapshot(); }

  // Wake deadline -> Scheduler::Wakeup applied (nanoseconds): how late the
  // home dispatcher's park or report wait returned, plus its wait for the
  // dispatch lock.  One sample per wakeups() increment.
  obs::HistogramSnapshot wake_apply_latencies() const {
    return wake_apply_hist_->Snapshot();
  }

  // Wake deadline -> the woken thread actually granted a CPU (nanoseconds):
  // the end-to-end wake-to-dispatch latency.  One sample per wakeup, recorded
  // at the grant that first runs the thread again.
  obs::HistogramSnapshot wake_to_dispatch_latencies() const {
    return wake_dispatch_hist_->Snapshot();
  }

  // The registry the executor's histograms live in (the Config::metrics one,
  // or the private fallback).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  std::int64_t dispatches() const { return dispatches_.load(std::memory_order_relaxed); }
  std::int64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }
  std::int64_t preemptions() const { return preemptions_.load(std::memory_order_relaxed); }
  // Parking-slot kicks issued (at most one CPU per kick, except shutdown,
  // which counts every slot).
  std::int64_t kicks() const { return kicks_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Report {
    sched::ThreadId tid = sched::kInvalidThread;
    Tick ran = 0;
    WorkResult::Kind kind = WorkResult::Kind::kContinue;
    Tick block_for = 0;
    bool preempt_observed = false;   // yielded because the flag was set
    Clock::time_point yielded_at{};  // raw instant the work loop exited
  };

  struct Worker {
    sched::ThreadId tid = sched::kInvalidThread;
    sched::Weight weight = 1.0;
    std::function<WorkResult()> work;

    common::Mutex mu;
    common::CondVar cv;
    bool granted SFS_GUARDED_BY(mu) = false;
    sched::CpuId granted_cpu SFS_GUARDED_BY(mu) = sched::kInvalidCpu;
    std::atomic<bool> preempt{false};
    std::atomic<bool> shutdown{false};

    // Wall-ns instant (trace epoch) the pending wakeup came due; -1 when no
    // wakeup is in flight.  Stored where Wakeup is applied, exchanged out at
    // the grant that runs the thread again — the wake_to_dispatch sample.
    std::atomic<std::int64_t> wake_pending_ns{-1};

    std::thread thread;
    Tick cpu_time = 0;  // written under the dispatch/lifecycle lock of the charging CPU
  };

  // A blocked thread's wake deadline, filed with the dispatcher that charged
  // the Block.
  struct PendingWakeup {
    Clock::time_point at;
    sched::ThreadId tid;
    bool operator>(const PendingWakeup& other) const { return at > other.at; }
  };

  // A preemption suggested while applying wakeups, applied after the dispatch
  // guard is released (never hold a dispatch mutex and a Cpu::mu together).
  struct PreemptPoke {
    sched::CpuId cpu = sched::kInvalidCpu;
    sched::ThreadId tid = sched::kInvalidThread;
  };

  // Per-processor dispatcher state.  report/cv carry the running worker's
  // yield report back to this CPU's dispatcher; park carries kicks in.
  struct Cpu {
    common::Mutex mu;
    common::CondVar cv;
    std::optional<Report> report SFS_GUARDED_BY(mu);
    sched::ThreadId running_tid SFS_GUARDED_BY(mu) = sched::kInvalidThread;
    bool preempt_sent SFS_GUARDED_BY(mu) = false;
    Clock::time_point preempt_sent_at SFS_GUARDED_BY(mu){};

    // This dispatcher's private parking slot; anyone may Kick() it.
    common::ParkingSlot park;
    // True only while the owning dispatcher is inside ParkUntil; targeted
    // kicks scan these flags to pick ONE sleeping CPU instead of waking all.
    std::atomic<bool> parked{false};
    // Wake deadlines of the threads this dispatcher blocked, earliest first.
    // Only this CPU's dispatcher touches it, so it needs no lock.
    std::priority_queue<PendingWakeup, std::vector<PendingWakeup>, std::greater<>> wakes;
    // The earliest wake deadline, by value (the far future when none).
    Clock::time_point next_wake() const {
      return wakes.empty() ? Clock::time_point::max() : wakes.top().at;
    }

    // Grant instant in ticks since run start, for the elapsed[] vector handed
    // to SuggestPreemption; advisory, hence lock-free.
    std::atomic<Tick> grant_at{0};
    // What this CPU is running, readable without cpu.mu (advisory mirror of
    // running_tid for the elapsed[] estimate; exact values go through mu).
    std::atomic<sched::ThreadId> running_hint{sched::kInvalidThread};

    // This dispatcher's preempt-latency samples; written only by its own
    // thread and merged after the run, so sampling never serializes
    // dispatchers.  (Dispatch latencies go straight to the sharded
    // histograms, which are per-CPU by construction.)
    common::SampleSet preempt_latencies;

    // Wake scratch (own dispatcher only): pokes collected under the dispatch
    // guard, applied after it; elapsed[] reused across wakeups.
    std::vector<PreemptPoke> pokes;
    std::vector<Tick> elapsed_scratch;
  };

  void WorkerBody(Worker& w);
  void Grant(Worker& w, sched::CpuId cpu);
  void DispatcherLoop(sched::CpuId cpu);
  void HandleReport(sched::CpuId cpu, const Report& report, bool preempt_sent,
                    Clock::time_point preempt_sent_at);

  // Applies every wakeup in cpu.wakes due by `now` (read under the guard):
  // Wakeup + wake bookkeeping + SuggestPreemption each, suggested preemptions
  // pushed onto cpu.pokes.  Called only by `cpu`'s own dispatcher, holding
  // LockDispatch(cpu).
  void ApplyDueWakeupsLocked(sched::CpuId cpu, Clock::time_point now);
  // Sets each poke's preempt flag if its thread is still the one granted on
  // the poked CPU, then clears cpu.pokes; caller must NOT hold any scheduler
  // lock (Cpu::mu is a leaf).
  void ApplyPreemptPokes(Cpu& cpu);

  // Kick every slot (shutdown).
  void KickAllParked();
  // "Scheduler state changed, somebody idle may have work": if runnable work
  // exceeds the running CPUs, wake one parked CPU (round-robin from
  // `hint`+1), or none if all are busy.  The parked-flag scan is advisory — a
  // miss costs one quantum-long idle recheck, never liveness.
  void KickAfterStateChange(sched::CpuId hint);

  void StopAll();

  Worker& WorkerByTid(sched::ThreadId tid) {
    return *worker_by_tid_[static_cast<std::size_t>(tid)];
  }

  // Wall nanoseconds since the run started (the trace epoch).
  std::int64_t WallNs(Clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - t0_).count();
  }

  sched::Scheduler& scheduler_;
  Config config_;

  // Metrics plumbing: external registry or private fallback, plus resolved
  // histogram handles (registration takes a lock; recording must not).
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::LogHistogram* dispatch_hist_ = nullptr;
  obs::LogHistogram* lock_wait_hist_ = nullptr;
  obs::LogHistogram* wake_apply_hist_ = nullptr;
  obs::LogHistogram* wake_dispatch_hist_ = nullptr;
  obs::Trace* trace_ = nullptr;  // == config_.trace

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> worker_by_tid_;  // tid-indexed flat vector, built in Run
  std::vector<std::unique_ptr<Cpu>> cpus_;

  Clock::time_point t0_;
  Clock::time_point wall_end_;

  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  // CPUs currently between Grant and report pickup; the baton-kick predicate
  // compares it with scheduler_.runnable_count() (which counts running
  // threads too) to estimate queued-but-not-running work.
  std::atomic<int> running_cpus_{0};

  // Merged from the per-CPU sample sets after the dispatchers join.
  common::SampleSet preempt_latencies_;
  std::atomic<std::int64_t> dispatches_{0};
  std::atomic<std::int64_t> wakeups_{0};
  std::atomic<std::int64_t> preemptions_{0};
  std::atomic<std::int64_t> kicks_{0};
  bool started_ = false;
};

}  // namespace sfs::runtime

#endif  // SFS_RUNTIME_EXECUTOR_H_
