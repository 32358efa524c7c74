// Discrete-event SMP simulator.
//
// Substitute for the paper's dual-processor Pentium III testbed (DESIGN.md,
// "Substitutions").  The engine models p processors driving any sched::Scheduler
// through the exact kernel protocol of Section 3.1:
//
//   * each processor independently dispatches, runs its thread until the quantum
//     expires or the thread blocks/exits, then charges the scheduler with the
//     *actual* time used (quanta on different CPUs are not synchronized);
//   * arrivals and wakeups dispatch to an idle processor immediately, or consult
//     Scheduler::SuggestPreemption (the reschedule_idle() analogue);
//   * an optional per-switch context-switch cost consumes processor time that is
//     credited to no thread;
//   * every state change is reported to optional observers so experiments can
//     mirror the event stream into the GMS fluid reference or sample service
//     time-series (Figures 4 and 5 plot exactly those series).
//
// The engine is single-threaded and deterministic: simultaneous events fire in
// insertion order.
//
// Hot-path layout (DESIGN.md, "Engine internals"): the event queue is a
// hierarchical timing wheel with pooled nodes whose per-slot FIFO realizes
// (time, insertion) order by construction; the loop drains each tick's FIFO
// as one batch (TimingWheel::DrainCurrent), handler re-pushes at the same
// tick included.  Tasks live in a dense slot arena indexed by the events
// themselves, and observer hooks are null-checked once per notification —
// steady-state simulation performs no allocations in the event loop.
// The recorded runs in tests/integration/recorded_runs.h
// (replayed by tests/integration/recorded_runs_test.cc) pin this order.

#ifndef SFS_SIM_ENGINE_H_
#define SFS_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/slot_arena.h"
#include "src/common/time.h"
#include "src/common/timing_wheel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sched/scheduler.h"
#include "src/sim/task.h"

namespace sfs::sim {

struct EngineConfig {
  // CPU time consumed by switching a processor to a *different* thread; modelled
  // as uncredited processor time before the new thread starts (Table 1 measures
  // the real-code analogue).
  Tick context_switch_cost = 0;

  // Cache-restore model (Table 1's "restoration of the cache state becomes the
  // dominating factor"): dispatching a task with a working set costs extra
  // uncredited time per KiB — full when cache-cold (last ran elsewhere), half
  // when returning to its own CPU after other tasks polluted it, zero when it
  // is re-dispatched back-to-back.  0 disables the model.
  Tick cache_restore_per_kb = 0;

  // Observability sink (sim-tick clock domain).  When set, the engine records
  // grants, preemptions, run intervals, charges and lifecycle events into the
  // trace's rings and also hands the trace to the scheduler (steal/rebalance/
  // readjust records).  Recording never feeds back into scheduling decisions,
  // so schedules and fingerprints are byte-identical with tracing on or off;
  // the nullptr path costs one predicted branch per instrumentation point
  // (the NotifySchedEvent contract).
  obs::Trace* trace = nullptr;

  // Sim-time histogram sink.  When set, the engine records every granted
  // quantum into "sim/quantum_ticks" and every completed run interval into
  // "sim/run_interval_ticks" (both in ticks).  These are pure functions of
  // the workload and seed — unlike the executor's wall-clock histograms they
  // belong in the Reporter's deterministic section.  Same cost contract as
  // `trace`: one predicted branch per site when null.
  obs::MetricsRegistry* metrics = nullptr;
};

// Scheduler-visible lifecycle events, for mirroring into GmsReference etc.
enum class SchedEvent { kArrival, kDeparture, kBlock, kWakeup };

class Engine {
 public:
  Engine(sched::Scheduler& scheduler, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- workload setup ---------------------------------------------------------

  // Schedules `task` to arrive (become runnable) at absolute time `at` >= now.
  void AddTaskAt(Tick at, std::unique_ptr<Task> task);

  // Pre-sizes the task arena, the tid index and the event-queue node pool for
  // a workload of about `task_count` tasks.  Purely an allocation hint —
  // growth past it is handled — meant to be called at workload-setup time so
  // the measured region allocates nothing.
  void ReserveTasks(std::size_t task_count);

  // Registers `fn` to run every `period` ticks of simulated time (first firing at
  // now + period).  Used for service sampling.
  void AddPeriodicHook(Tick period, std::function<void(Engine&)> fn);

  // Called when a task exits; may add new tasks (e.g. the Figure 5 short-job
  // chain: "each short task was introduced only after the previous one finished").
  void SetExitHook(std::function<void(Engine&, Task&)> fn);

  // Observes every scheduler-visible lifecycle event (for the GMS mirror).
  // The no-observer configuration pays a single branch per event.
  void SetSchedEventHook(std::function<void(SchedEvent, const Task&, Tick)> fn);

  // Observes every completed run interval: (start, length, cpu, tid).  Used by
  // the schedule fingerprints of eval::RunScaling and friends; the same
  // intervals reach an attached obs::Trace as kRun records.
  void SetRunIntervalHook(std::function<void(Tick, Tick, sched::CpuId, sched::ThreadId)> fn);

  // --- execution ---------------------------------------------------------------

  // Runs the simulation until `until` (inclusive of events at `until`).
  void RunUntil(Tick until);

  // Terminates a task immediately (the kill(1) analogue used when an experiment
  // "stops" a thread, e.g. T2 at t=30s in Figure 4).  Charges and removes it
  // from the scheduler in whatever state it is, then refills its processor.
  void KillTask(sched::ThreadId tid);

  // --- introspection -----------------------------------------------------------

  Tick now() const { return now_; }
  sched::Scheduler& scheduler() { return scheduler_; }

  // Task lookup; valid for exited tasks until the engine is destroyed.
  const Task& task(sched::ThreadId tid) const;
  Task& task(sched::ThreadId tid);
  bool HasTask(sched::ThreadId tid) const;

  // Cumulative CPU service of a task in ticks (survives task exit).
  Tick Service(sched::ThreadId tid) const { return task(tid).service(); }

  // Like Service(), but includes the uncharged time of an in-flight quantum, so
  // samplers observe smooth progress rather than 200 ms staircases.
  Tick ServiceIncludingRunning(sched::ThreadId tid) const;

  // Iterates all tasks ever added (any state), in arrival-insertion order.
  template <typename Fn>
  void ForEachTask(Fn&& fn) const {
    tasks_.ForEach(fn);
  }

  std::int64_t context_switches() const { return context_switches_; }
  std::int64_t dispatches() const { return dispatches_; }
  std::int64_t preemptions() const { return preemptions_; }
  // Events popped off the event queue so far (arrivals, wakeups, CPU timers —
  // including superseded ones — and periodic-hook firings).  The denominator
  // of the engine-throughput benchmarks.
  std::int64_t events_processed() const { return events_processed_; }
  // Dispatches that moved a task to a different processor than it last ran on
  // (cache-cold starts; the affinity extension reduces these).
  std::int64_t migrations() const { return migrations_; }
  // Idle-pull steals the scheduler performed during this engine's lifetime
  // (sharded policies; zero for flat schedulers).  Steals happen only inside
  // PickNext, which only this engine calls while it runs.
  std::int64_t steals() const { return scheduler_.steals() - steals_at_ctor_; }
  // Processor time consumed by context switches so far, including the consumed
  // part of any in-flight switch window (so the capacity identity
  // service + idle + switch cost == p * elapsed holds at any instant).
  Tick total_context_switch_cost() const;
  Tick idle_time() const;

 private:
  using TaskSlot = common::SlotArena<Task>::SlotId;

  enum class EventKind : std::uint8_t { kArrival, kWakeup, kCpuTimer, kPeriodic };

  // The wheel keys events by time and keeps equal times in insertion order,
  // so the payload carries no tie-break of its own.
  struct Event {
    EventKind kind = EventKind::kArrival;
    std::int32_t a = 0;      // task slot (arrival/wakeup), cpu (timer), hook idx (periodic)
    std::uint64_t stamp = 0;  // timer generation (kCpuTimer)
  };

  struct Cpu {
    sched::ThreadId running = sched::kInvalidThread;
    TaskSlot running_slot = 0;  // arena slot of `running` (valid iff running)
    sched::ThreadId last_thread = sched::kInvalidThread;
    Tick dispatch_time = 0;  // when the dispatch began (switch window start)
    Tick switch_cost = 0;    // cost of the in-flight switch window
    Tick run_start = 0;      // when the current thread began accruing service
    Tick quantum_end = 0;    // absolute preemption deadline
    Tick burst_end = 0;      // absolute completion of the thread's compute burst
    std::uint64_t timer_stamp = 0;  // invalidates superseded timer events
    Tick idle_since = 0;
    Tick idle_accum = 0;
  };

  struct PeriodicHook {
    Tick period = 0;
    std::function<void(Engine&)> fn;
  };

  // tid -> arena slot; CHECK-fails on unknown tid.
  TaskSlot SlotFor(sched::ThreadId tid) const;

  void Push(Tick time, EventKind kind, std::int32_t a, std::uint64_t stamp = 0);
  void DispatchEvent(const Event& ev);
  void HandleArrival(TaskSlot slot);
  void HandleWakeup(TaskSlot slot);
  void HandleCpuTimer(sched::CpuId cpu_id, std::uint64_t stamp);
  void HandlePeriodic(std::size_t idx);

  // Makes a newly arrived or woken thread run somewhere if it should: idle CPU
  // first, then the scheduler's preemption suggestion.  Arrivals take the
  // preemption check too, as Linux 2.2 calls reschedule_idle() from
  // wake_up_process() for forked children as well as for wakeups.
  void PlaceRunnable(sched::ThreadId tid);

  // Charges the thread running on `cpu_id` for the time used, frees the CPU, and
  // applies the behaviour's next action if its compute burst just completed.
  void StopRunning(sched::CpuId cpu_id);

  // Picks and starts the next thread on a free CPU (or marks it idle).
  void Dispatch(sched::CpuId cpu_id);

  // Applies the behaviour's next action for a task that just finished a burst or
  // arrived.  Returns true if the task is (still) runnable and has compute to do.
  bool ApplyNextAction(Task& task);

  // Single-branch observer notifications (the common no-observer case pays
  // one predictable test, no std::function invocation machinery).  SchedEvent
  // and TraceEventKind share their first four enumerators, so the lifecycle
  // trace record is a straight cast.
  void NotifySchedEvent(SchedEvent event, const Task& task) {
    if (sched_event_hook_) {
      sched_event_hook_(event, task, now_);
    }
    if (trace_) [[unlikely]] {
      trace_->RecordLifecycle(static_cast<obs::TraceEventKind>(event), now_, task.tid());
    }
  }

  sched::Scheduler& scheduler_;
  EngineConfig config_;
  obs::Trace* trace_;  // == config_.trace; nullptr when tracing is off
  std::int64_t steals_at_ctor_;
  // Resolved from config_.metrics at construction (registry lookups lock;
  // the event loop must not).  Null when metrics are off.
  obs::LogHistogram* quantum_hist_ = nullptr;
  obs::LogHistogram* run_hist_ = nullptr;
  Tick now_ = 0;

  common::TimingWheel<Event> wheel_;
  common::SlotArena<Task> tasks_;
  // ThreadId -> arena slot (-1 = unknown tid).  ThreadIds are dense small
  // integers in practice (sched/types.h), so a flat vector beats a hash map.
  std::vector<std::int32_t> tid_to_slot_;
  std::vector<Cpu> cpus_;
  // Idle-processor bitmap: bit (cpu % 64) of word (cpu / 64) is set iff
  // nothing runs on cpu.
  std::vector<std::uint64_t> idle_;
  std::vector<PeriodicHook> periodic_hooks_;
  std::vector<Tick> preempt_elapsed_;  // reused scratch for SuggestPreemption

  std::function<void(Engine&, Task&)> exit_hook_;
  std::function<void(SchedEvent, const Task&, Tick)> sched_event_hook_;
  std::function<void(Tick, Tick, sched::CpuId, sched::ThreadId)> run_interval_hook_;

  std::int64_t context_switches_ = 0;
  std::int64_t dispatches_ = 0;
  std::int64_t preemptions_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t events_processed_ = 0;
  Tick total_ctx_cost_ = 0;
};

}  // namespace sfs::sim

#endif  // SFS_SIM_ENGINE_H_
