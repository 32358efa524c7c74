#include "src/sim/engine.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/assert.h"

namespace sfs::sim {

static_assert(static_cast<int>(SchedEvent::kArrival) ==
                      static_cast<int>(obs::TraceEventKind::kArrival) &&
                  static_cast<int>(SchedEvent::kDeparture) ==
                      static_cast<int>(obs::TraceEventKind::kDeparture) &&
                  static_cast<int>(SchedEvent::kBlock) ==
                      static_cast<int>(obs::TraceEventKind::kBlock) &&
                  static_cast<int>(SchedEvent::kWakeup) ==
                      static_cast<int>(obs::TraceEventKind::kWakeup),
              "NotifySchedEvent casts SchedEvent to TraceEventKind");

Engine::Engine(sched::Scheduler& scheduler, EngineConfig config)
    : scheduler_(scheduler),
      config_(config),
      trace_(config.trace) {
  cpus_.resize(static_cast<std::size_t>(scheduler.num_cpus()));
  for (auto& cpu : cpus_) {
    cpu.idle_since = 0;
  }
  idle_.assign((cpus_.size() + 63) / 64, 0);
  for (std::size_t cpu = 0; cpu < cpus_.size(); ++cpu) {
    idle_[cpu / 64] |= std::uint64_t{1} << (cpu % 64);
  }
  preempt_elapsed_.reserve(cpus_.size());
  if (trace_ != nullptr) {
    SFS_CHECK(trace_->num_cpus() >= scheduler.num_cpus());
    scheduler_.SetTrace(trace_);
  }
  if (config.metrics != nullptr) {
    quantum_hist_ = &config.metrics->GetHistogram("sim/quantum_ticks");
    run_hist_ = &config.metrics->GetHistogram("sim/run_interval_ticks");
  }
}

Engine::~Engine() = default;

void Engine::AddTaskAt(Tick at, std::unique_ptr<Task> task) {
  SFS_CHECK(at >= now_);
  SFS_CHECK(task != nullptr);
  const sched::ThreadId tid = task->tid();
  SFS_CHECK(tid >= 0);
  if (static_cast<std::size_t>(tid) >= tid_to_slot_.size()) {
    // Auto-grow with geometric capacity: a monotone stream of fresh tids
    // (exit-hook churn) would otherwise re-resize to exactly tid+1 each time
    // and degrade to quadratic copying.  ReserveTasks remains a pure
    // pre-touch optimization, never a requirement.
    tid_to_slot_.reserve(std::bit_ceil(static_cast<std::size_t>(tid) + 1));
    tid_to_slot_.resize(static_cast<std::size_t>(tid) + 1, -1);
  }
  SFS_CHECK(tid_to_slot_[static_cast<std::size_t>(tid)] < 0);  // duplicate tid
  const TaskSlot slot = tasks_.Emplace(std::move(*task));
  tasks_[slot].slot_ = slot;
  tid_to_slot_[static_cast<std::size_t>(tid)] = static_cast<std::int32_t>(slot);
  if (trace_ && !tasks_[slot].label().empty()) {
    trace_->SetThreadName(tid, tasks_[slot].label() + " T" + std::to_string(tid));
  }
  Push(at, EventKind::kArrival, static_cast<std::int32_t>(slot));
}

void Engine::ReserveTasks(std::size_t task_count) {
  tasks_.Reserve(task_count);
  tid_to_slot_.reserve(task_count + 1);
  // Every blocked task holds one pending wakeup and every CPU one timer, plus
  // slack for superseded timers awaiting their pop.
  wheel_.Reserve(task_count + 2 * cpus_.size() + 16);
}

void Engine::AddPeriodicHook(Tick period, std::function<void(Engine&)> fn) {
  SFS_CHECK(period > 0);
  periodic_hooks_.push_back({period, std::move(fn)});
  Push(now_ + period, EventKind::kPeriodic,
       static_cast<std::int32_t>(periodic_hooks_.size() - 1));
}

void Engine::SetExitHook(std::function<void(Engine&, Task&)> fn) { exit_hook_ = std::move(fn); }

void Engine::SetSchedEventHook(std::function<void(SchedEvent, const Task&, Tick)> fn) {
  sched_event_hook_ = std::move(fn);
}

void Engine::SetRunIntervalHook(
    std::function<void(Tick, Tick, sched::CpuId, sched::ThreadId)> fn) {
  run_interval_hook_ = std::move(fn);
}

void Engine::RunUntil(Tick until) {
  SFS_CHECK(until >= now_);
  // Same-tick batch: one NextTime() per distinct tick, then drain the whole
  // slot FIFO (including handler re-pushes at this tick) in one pass.
  Tick t = 0;
  while (wheel_.NextTime(until, &t)) {
    SFS_DCHECK(t >= now_);
    now_ = t;
    wheel_.DrainCurrent([this](const Event& ev) { DispatchEvent(ev); });
  }
  now_ = until;
}

void Engine::DispatchEvent(const Event& ev) {
  ++events_processed_;
  if (trace_) [[unlikely]] {
    // Clockless scheduler contexts (steal/rebalance/readjust) stamp their
    // records with this hint; exact in the single-threaded engine.
    trace_->PublishNow(now_);
  }
  switch (ev.kind) {
    case EventKind::kArrival:
      HandleArrival(static_cast<TaskSlot>(ev.a));
      break;
    case EventKind::kWakeup:
      HandleWakeup(static_cast<TaskSlot>(ev.a));
      break;
    case EventKind::kCpuTimer:
      HandleCpuTimer(ev.a, ev.stamp);
      break;
    case EventKind::kPeriodic:
      HandlePeriodic(static_cast<std::size_t>(ev.a));
      break;
  }
}

void Engine::KillTask(sched::ThreadId tid) {
  Task& t = task(tid);
  SFS_CHECK(t.state_ != Task::State::kExited);
  sched::CpuId freed = sched::kInvalidCpu;
  switch (t.state_) {
    case Task::State::kRunning:
      // Dispatch stamped last_cpu_, and it holds while the task runs.
      freed = t.last_cpu_;
      SFS_DCHECK(cpus_[static_cast<std::size_t>(freed)].running == tid);
      StopRunning(freed);  // charges; may block/exit via the behaviour
      break;
    case Task::State::kNew:
      // Not yet arrived: mark exited; the pending arrival event is then ignored.
      t.state_ = Task::State::kExited;
      return;
    default:
      break;
  }
  if (t.state_ == Task::State::kBlocked) {
    // Wake-then-remove keeps the scheduler protocol simple; the pending wakeup
    // event becomes stale and is ignored via the exited state.
    scheduler_.Wakeup(tid);
    NotifySchedEvent(SchedEvent::kWakeup, t);
    t.state_ = Task::State::kRunnable;
  }
  if (t.state_ != Task::State::kExited) {
    scheduler_.RemoveThread(tid);
    NotifySchedEvent(SchedEvent::kDeparture, t);
    t.state_ = Task::State::kExited;
    if (exit_hook_) {
      exit_hook_(*this, t);
    }
  }
  if (freed != sched::kInvalidCpu) {
    Dispatch(freed);
  }
}

Engine::TaskSlot Engine::SlotFor(sched::ThreadId tid) const {
  SFS_CHECK(tid >= 0 && static_cast<std::size_t>(tid) < tid_to_slot_.size());
  const std::int32_t slot = tid_to_slot_[static_cast<std::size_t>(tid)];
  SFS_CHECK(slot >= 0);
  return static_cast<TaskSlot>(slot);
}

const Task& Engine::task(sched::ThreadId tid) const { return tasks_[SlotFor(tid)]; }

Task& Engine::task(sched::ThreadId tid) { return tasks_[SlotFor(tid)]; }

bool Engine::HasTask(sched::ThreadId tid) const {
  return tid >= 0 && static_cast<std::size_t>(tid) < tid_to_slot_.size() &&
         tid_to_slot_[static_cast<std::size_t>(tid)] >= 0;
}

Tick Engine::ServiceIncludingRunning(sched::ThreadId tid) const {
  const Task& t = task(tid);
  Tick service = t.service();
  if (t.state() == Task::State::kRunning) {
    const Cpu& cpu = cpus_[static_cast<std::size_t>(t.last_cpu_)];
    SFS_DCHECK(cpu.running == tid);
    service += std::max<Tick>(0, now_ - cpu.run_start);
  }
  return service;
}

Tick Engine::total_context_switch_cost() const {
  Tick total = total_ctx_cost_;
  for (const auto& cpu : cpus_) {
    if (cpu.running != sched::kInvalidThread) {
      total += std::min(cpu.switch_cost, std::max<Tick>(0, now_ - cpu.dispatch_time));
    }
  }
  return total;
}

Tick Engine::idle_time() const {
  Tick total = 0;
  for (const auto& cpu : cpus_) {
    total += cpu.idle_accum;
    if (cpu.running == sched::kInvalidThread && cpu.idle_since >= 0) {
      total += now_ - cpu.idle_since;
    }
  }
  return total;
}

void Engine::Push(Tick time, EventKind kind, std::int32_t a, std::uint64_t stamp) {
  SFS_DCHECK(time >= now_);
  wheel_.Push(time, Event{kind, a, stamp});
}

void Engine::HandleArrival(TaskSlot slot) {
  Task& t = tasks_[slot];
  if (t.state_ == Task::State::kExited) {
    return;  // killed before it arrived
  }
  SFS_CHECK(t.state_ == Task::State::kNew);
  const sched::ThreadId tid = t.tid();
  const Action first = t.behavior().Next(now_);
  switch (first.kind) {
    case Action::Kind::kCompute: {
      SFS_CHECK(first.duration > 0);
      t.remaining_burst_ = first.duration;
      t.state_ = Task::State::kRunnable;
      scheduler_.AddThread(tid, t.weight(), t.home_cpu_);
      NotifySchedEvent(SchedEvent::kArrival, t);
      PlaceRunnable(tid, config_.preempt_on_arrival);
      break;
    }
    case Action::Kind::kBlock: {
      // Arrive asleep: register with the scheduler, then block immediately.
      SFS_CHECK(first.duration > 0);
      scheduler_.AddThread(tid, t.weight(), t.home_cpu_);
      NotifySchedEvent(SchedEvent::kArrival, t);
      scheduler_.Block(tid);
      NotifySchedEvent(SchedEvent::kBlock, t);
      t.state_ = Task::State::kBlocked;
      Push(now_ + first.duration, EventKind::kWakeup, static_cast<std::int32_t>(slot));
      break;
    }
    case Action::Kind::kExit:
      t.state_ = Task::State::kExited;
      if (exit_hook_) {
        exit_hook_(*this, t);
      }
      break;
  }
}

void Engine::HandleWakeup(TaskSlot slot) {
  Task& t = tasks_[slot];
  if (t.state_ == Task::State::kExited) {
    return;  // killed while blocked; stale wakeup
  }
  SFS_CHECK(t.state_ == Task::State::kBlocked);
  const sched::ThreadId tid = t.tid();
  t.state_ = Task::State::kRunnable;
  scheduler_.Wakeup(tid);
  NotifySchedEvent(SchedEvent::kWakeup, t);
  t.behavior().OnWake(now_);
  // The wake decides what to do next (usually a compute burst to serve a request).
  if (t.remaining_burst_ <= 0) {
    const Action next = t.behavior().Next(now_);
    switch (next.kind) {
      case Action::Kind::kCompute:
        SFS_CHECK(next.duration > 0);
        t.remaining_burst_ = next.duration;
        break;
      case Action::Kind::kBlock:
        SFS_CHECK(next.duration > 0);
        scheduler_.Block(tid);
        NotifySchedEvent(SchedEvent::kBlock, t);
        t.state_ = Task::State::kBlocked;
        Push(now_ + next.duration, EventKind::kWakeup, static_cast<std::int32_t>(slot));
        return;
      case Action::Kind::kExit:
        scheduler_.RemoveThread(tid);
        NotifySchedEvent(SchedEvent::kDeparture, t);
        t.state_ = Task::State::kExited;
        if (exit_hook_) {
          exit_hook_(*this, t);
        }
        return;
    }
  }
  PlaceRunnable(tid, /*may_preempt=*/true);
}

void Engine::HandleCpuTimer(sched::CpuId cpu_id, std::uint64_t stamp) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
  if (stamp != cpu.timer_stamp || cpu.running == sched::kInvalidThread) {
    return;  // superseded by an earlier charge/dispatch
  }
  StopRunning(cpu_id);
  Dispatch(cpu_id);
}

void Engine::HandlePeriodic(std::size_t idx) {
  SFS_CHECK(idx < periodic_hooks_.size());
  periodic_hooks_[idx].fn(*this);
  Push(now_ + periodic_hooks_[idx].period, EventKind::kPeriodic, static_cast<std::int32_t>(idx));
}

void Engine::PlaceRunnable(sched::ThreadId tid, bool may_preempt) {
  // Idle processors first, in ascending order, until one accepts work.  A
  // dispatch can legitimately come up empty (a sharded scheduler with
  // stealing disabled only serves its own shard); the scheduler's PickMask
  // names the idle processors whose pick could act at all, so the visit
  // costs O(p / 64 + candidates), not O(idle processors).
  for (std::size_t word = 0; word < idle_.size(); ++word) {
    for (std::uint64_t bits = idle_[word] & scheduler_.PickMask(word); bits != 0;
         bits &= bits - 1) {
      const auto cpu_id = static_cast<sched::CpuId>(word * 64 + std::countr_zero(bits));
      Dispatch(cpu_id);
      if (cpus_[static_cast<std::size_t>(cpu_id)].running != sched::kInvalidThread) {
        return;
      }
    }
  }
  if (!may_preempt) {
    return;  // queued; it will compete at the next scheduling point
  }
  // All busy: ask the policy whether this wakeup warrants preemption, giving it
  // the tick handler's view of how long each runner has held its processor.
  // (Scratch vector reused across calls: no steady-state allocation.)
  preempt_elapsed_.assign(cpus_.size(), 0);
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (cpus_[i].running != sched::kInvalidThread) {
      preempt_elapsed_[i] = std::max<Tick>(0, now_ - cpus_[i].run_start);
    }
  }
  const sched::CpuId victim = scheduler_.SuggestPreemption(tid, preempt_elapsed_);
  if (victim == sched::kInvalidCpu) {
    return;
  }
  SFS_CHECK(cpus_[static_cast<std::size_t>(victim)].running != sched::kInvalidThread);
  ++preemptions_;
  if (trace_) [[unlikely]] {
    // Victim thread, preempting thread in arg; recorded on the victim's ring.
    trace_->Record(victim, obs::TraceEventKind::kPreempt, now_,
                   cpus_[static_cast<std::size_t>(victim)].running, tid);
  }
  StopRunning(victim);
  Dispatch(victim);
}

void Engine::StopRunning(sched::CpuId cpu_id) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
  const sched::ThreadId tid = cpu.running;
  SFS_CHECK(tid != sched::kInvalidThread);
  Task& t = tasks_[cpu.running_slot];
  const Tick ran = std::max<Tick>(0, now_ - cpu.run_start);
  // Consume only the part of the switch window that actually elapsed (a
  // preemption can land inside it).
  total_ctx_cost_ += std::min(cpu.switch_cost, std::max<Tick>(0, now_ - cpu.dispatch_time));
  cpu.switch_cost = 0;
  scheduler_.Charge(tid, ran);
  t.service_ += ran;
  t.remaining_burst_ = std::max<Tick>(0, t.remaining_burst_ - ran);
  t.state_ = Task::State::kRunnable;
  if (run_interval_hook_ && ran > 0) {
    run_interval_hook_(cpu.run_start, ran, cpu_id, tid);
  }
  if (trace_) [[unlikely]] {
    trace_->Record(cpu_id, obs::TraceEventKind::kCharge, now_, tid, ran);
    if (ran > 0) {
      trace_->Record(cpu_id, obs::TraceEventKind::kRun, cpu.run_start, tid, ran);
    }
  }
  if (run_hist_ && ran > 0) [[unlikely]] {
    run_hist_->Record(0, ran);  // single-threaded engine: shard 0
  }
  cpu.last_thread = tid;
  cpu.running = sched::kInvalidThread;
  idle_[static_cast<std::size_t>(cpu_id) / 64] |= std::uint64_t{1} << (cpu_id % 64);
  cpu.idle_since = now_;
  ++cpu.timer_stamp;  // invalidate any outstanding timer

  if (t.remaining_burst_ == 0) {
    // The compute burst completed exactly when the thread stopped: consult the
    // behaviour for the next action (new burst, block, or exit).
    ApplyNextAction(t);
  } else {
    // Quantum expiry or preemption: the thread stays runnable mid-burst.
    t.behavior().OnPreempt(now_);
  }
}

void Engine::Dispatch(sched::CpuId cpu_id) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
  SFS_CHECK(cpu.running == sched::kInvalidThread);
  const auto word = static_cast<std::size_t>(cpu_id) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (cpu_id % 64);
  if ((scheduler_.PickMask(word) & bit) == 0) {
    return;  // the pick could only come up empty, changing nothing
  }
  const std::int64_t scheduler_steals_before = scheduler_.steals();
  const sched::ThreadId tid = scheduler_.PickNext(cpu_id);
  steals_ += scheduler_.steals() - scheduler_steals_before;
  if (tid == sched::kInvalidThread) {
    // Stay idle; idle_since was set when the CPU was freed (or at start).
    return;
  }
  const TaskSlot slot = SlotFor(tid);
  Task& t = tasks_[slot];
  SFS_CHECK(t.state_ == Task::State::kRunnable);
  SFS_CHECK(t.remaining_burst_ > 0);

  if (cpu.idle_since >= 0) {
    cpu.idle_accum += now_ - cpu.idle_since;
    cpu.idle_since = -1;
  }

  Tick switch_cost = 0;
  if (cpu.last_thread != tid) {
    ++context_switches_;
    switch_cost = config_.context_switch_cost;
    if (config_.cache_restore_per_kb > 0 && t.working_set_kb_ > 0) {
      // Cache-cold on another CPU: full restore; returning to its own CPU
      // after other tasks ran there: half.
      const Tick full = config_.cache_restore_per_kb * t.working_set_kb_;
      switch_cost += (t.last_cpu_ == cpu_id) ? full / 2 : full;
    }
  }
  if (t.last_cpu_ != sched::kInvalidCpu && t.last_cpu_ != cpu_id) {
    ++migrations_;
  }
  t.last_cpu_ = cpu_id;
  ++dispatches_;

  const Tick quantum = scheduler_.QuantumFor(tid);
  SFS_CHECK(quantum > 0);

  t.state_ = Task::State::kRunning;
  cpu.running = tid;
  idle_[word] &= ~bit;
  cpu.running_slot = slot;
  cpu.dispatch_time = now_;
  cpu.switch_cost = switch_cost;
  cpu.run_start = now_ + switch_cost;
  cpu.quantum_end = cpu.run_start + quantum;
  cpu.burst_end = cpu.run_start + std::min(t.remaining_burst_, kTickInfinity);
  ++cpu.timer_stamp;
  Push(std::min(cpu.quantum_end, cpu.burst_end), EventKind::kCpuTimer, cpu_id, cpu.timer_stamp);
  if (trace_) [[unlikely]] {
    trace_->Record(cpu_id, obs::TraceEventKind::kGrant, now_, tid, quantum);
  }
  if (quantum_hist_) [[unlikely]] {
    quantum_hist_->Record(0, quantum);  // single-threaded engine: shard 0
  }
  t.behavior().OnDispatch(now_);
}

bool Engine::ApplyNextAction(Task& t) {
  const Action action = t.behavior().Next(now_);
  switch (action.kind) {
    case Action::Kind::kCompute:
      SFS_CHECK(action.duration > 0);
      t.remaining_burst_ = action.duration;
      return true;
    case Action::Kind::kBlock:
      SFS_CHECK(action.duration > 0);
      scheduler_.Block(t.tid());
      NotifySchedEvent(SchedEvent::kBlock, t);
      t.state_ = Task::State::kBlocked;
      Push(now_ + action.duration, EventKind::kWakeup, static_cast<std::int32_t>(t.slot_));
      return false;
    case Action::Kind::kExit:
      scheduler_.RemoveThread(t.tid());
      NotifySchedEvent(SchedEvent::kDeparture, t);
      t.state_ = Task::State::kExited;
      if (exit_hook_) {
        exit_hook_(*this, t);
      }
      return false;
  }
  SFS_CHECK(false);
  return false;
}

}  // namespace sfs::sim
