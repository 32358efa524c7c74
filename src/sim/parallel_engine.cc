#include "src/sim/parallel_engine.h"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>

#include "src/common/assert.h"
#include "src/sched/sharded.h"

namespace sfs::sim {

// The handlers below are sim::Engine's, restructured so that at workers > 1
// every scheduler call runs under the lock class the thread-safety contract
// (scheduler.h) assigns it, and every Task-field write precedes the scheduler
// call that makes the task grabbable by a peer worker.  Two reorderings
// relative to the serial engine make that possible, both observably identical
// on the serial path because Behavior calls depend only on `now`:
//
//   * the behaviour's next action is peeked *before* the scheduler sequence,
//     so the handler knows up front whether it needs a dispatch lock (compute,
//     block) or the full lifecycle lock (exit — a structural removal);
//   * task fields (service, burst, state) are finalized before Charge/Wakeup
//     publish the task, so a peer shard stealing it immediately afterwards
//     reads settled values (the release/acquire pair is the shard mutex).
//
// Every hook stream a fingerprint can hash — run intervals, lifecycle events,
// trace ring contents — is emitted in exactly the serial engine's order.

ParallelEngine::ParallelEngine(sched::Scheduler& scheduler, ParallelEngineConfig config)
    : scheduler_(scheduler),
      sharded_(dynamic_cast<sched::ShardedScheduler*>(&scheduler)),
      config_(config),
      trace_(config.trace),
      locked_(config.workers > 1) {
  SFS_CHECK(config_.workers >= 1);
  SFS_CHECK(config_.workers <= scheduler.num_cpus());
  SFS_CHECK(config_.epoch > 0);
  steals_at_ctor_ = scheduler_.steals();
  const int num_cpus = scheduler.num_cpus();
  cpus_.resize(static_cast<std::size_t>(num_cpus));
  for (auto& cpu : cpus_) {
    cpu.idle_since = 0;
  }
  if (trace_ != nullptr) {
    SFS_CHECK(trace_->num_cpus() >= num_cpus);
    scheduler_.SetTrace(trace_);
    if (locked_) {
      trace_->EnsureWorkerLifecycleRings(config_.workers);
    }
  }
  if (config.metrics != nullptr) {
    if (locked_) {
      // Workers record into distinct histogram shards; the registry must have
      // been built wide enough (MetricsRegistry(num_shards)).
      SFS_CHECK(config.metrics->num_shards() >= config_.workers);
    }
    quantum_hist_ = &config.metrics->GetHistogram("sim/quantum_ticks");
    run_hist_ = &config.metrics->GetHistogram("sim/run_interval_ticks");
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  owner_of_cpu_.resize(static_cast<std::size_t>(num_cpus), 0);
  for (int w = 0; w < config_.workers; ++w) {
    auto worker = std::make_unique<Worker>(config_.workers);
    worker->id = w;
    worker->cpu_begin = static_cast<sched::CpuId>(
        (static_cast<std::int64_t>(w) * num_cpus) / config_.workers);
    worker->cpu_end = static_cast<sched::CpuId>(
        (static_cast<std::int64_t>(w + 1) * num_cpus) / config_.workers);
    worker->preempt_elapsed.reserve(cpus_.size());
    for (sched::CpuId cpu = worker->cpu_begin; cpu < worker->cpu_end; ++cpu) {
      owner_of_cpu_[static_cast<std::size_t>(cpu)] = w;
    }
    workers_.push_back(std::move(worker));
  }
}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::AddTaskAt(Tick at, std::unique_ptr<Task> task) {
  SFS_CHECK(!parallel_running_);  // workers > 1: quiescent only
  SFS_CHECK(at >= now_);
  SFS_CHECK(task != nullptr);
  const sched::ThreadId tid = task->tid();
  SFS_CHECK(tid >= 0);
  if (static_cast<std::size_t>(tid) >= tid_to_slot_.size()) {
    tid_to_slot_.reserve(std::bit_ceil(static_cast<std::size_t>(tid) + 1));
    tid_to_slot_.resize(static_cast<std::size_t>(tid) + 1, -1);
  }
  SFS_CHECK(tid_to_slot_[static_cast<std::size_t>(tid)] < 0);  // duplicate tid
  const TaskSlot slot = tasks_.Emplace(std::move(*task));
  Task& t = tasks_[slot];
  t.slot_ = slot;
  tid_to_slot_[static_cast<std::size_t>(tid)] = static_cast<std::int32_t>(slot);
  if (trace_ && !t.label().empty()) {
    trace_->SetThreadName(tid, t.label() + " T" + std::to_string(tid));
  }
  // Arrival routing: the worker owning the home shard processes the arrival
  // (so a hinted, partitioned workload is a disjoint union of per-worker
  // subproblems); hintless tasks round-robin for balance.
  int owner = 0;
  if (t.home_cpu_ >= 0 && t.home_cpu_ < scheduler_.num_cpus()) {
    owner = OwnerOf(t.home_cpu_);
  } else {
    owner = static_cast<int>(arrival_rr_++ % static_cast<std::uint64_t>(config_.workers));
  }
  Push(*workers_[static_cast<std::size_t>(owner)], at, EventKind::kArrival,
       static_cast<std::int32_t>(slot));
}

void ParallelEngine::ReserveTasks(std::size_t task_count) {
  SFS_CHECK(!parallel_running_);
  tasks_.Reserve(task_count);
  tid_to_slot_.reserve(task_count + 1);
  for (auto& w : workers_) {
    const std::size_t owned = static_cast<std::size_t>(w->cpu_end - w->cpu_begin);
    w->wheel.Reserve(task_count / static_cast<std::size_t>(config_.workers) +
                     2 * owned + 16);
  }
}

void ParallelEngine::AddPeriodicHook(Tick period, std::function<void(ParallelEngine&)> fn) {
  SFS_CHECK(config_.workers == 1);  // would race every worker's clock
  SFS_CHECK(period > 0);
  periodic_hooks_.push_back({period, std::move(fn)});
  Push(*workers_[0], now_ + period, EventKind::kPeriodic,
       static_cast<std::int32_t>(periodic_hooks_.size() - 1));
}

void ParallelEngine::SetExitHook(std::function<void(ParallelEngine&, Task&)> fn) {
  exit_hook_ = std::move(fn);
}

void ParallelEngine::SetSchedEventHook(
    std::function<void(int, SchedEvent, const Task&, Tick)> fn) {
  sched_event_hook_ = std::move(fn);
}

void ParallelEngine::SetRunIntervalHook(
    std::function<void(int, Tick, Tick, sched::CpuId, sched::ThreadId)> fn) {
  run_interval_hook_ = std::move(fn);
}

void ParallelEngine::RunUntil(Tick until) {
  SFS_CHECK(until >= now_);
  if (!locked_) {
    // Serial oracle path: the exact sim::Engine loop (batched wheel drain) on
    // the calling thread.
    Worker& w = *workers_[0];
    Tick t = 0;
    while (w.wheel.NextTime(until, &t)) {
      SFS_DCHECK(t >= w.now);
      w.now = t;
      now_ = t;
      w.wheel.DrainCurrent([this, &w](const Event& ev) { DispatchEvent(w, ev); });
    }
    w.now = until;
    now_ = until;
    return;
  }
  SFS_CHECK(periodic_hooks_.empty());
  parallel_running_ = true;
  EpochBarrier barrier(config_.workers);
  const Tick start = now_;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config_.workers - 1));
  for (int w = 1; w < config_.workers; ++w) {
    threads.emplace_back([this, &barrier, w, start, until] {
      RunWorker(*workers_[static_cast<std::size_t>(w)], start, until, barrier);
    });
  }
  RunWorker(*workers_[0], start, until, barrier);
  for (auto& thread : threads) {
    thread.join();
  }
  now_ = until;
  parallel_running_ = false;
}

void ParallelEngine::RunWorker(Worker& w, Tick start, Tick until, EpochBarrier& barrier) {
  Tick epoch_start = start;
  while (true) {
    const Tick bound = std::min(epoch_start + config_.epoch - 1, until);
    w.now = epoch_start;
    // Mail sent during the previous epoch is ordered before this drain by the
    // barrier; clamping to the epoch start keeps the wheel monotone (the
    // bounded cross-worker time skew the determinism contract documents).
    DrainMail(w, epoch_start);
    IdleKick(w);
    RunLocal(w, bound);
    w.now = bound;
    barrier.ArriveAndWait([this, bound] {
      // Single-threaded window: every worker is parked.
      scheduler_.OnEpochBoundary(bound);
      ++epochs_;
      if (trace_) [[unlikely]] {
        trace_->PublishNow(bound);
      }
    });
    if (bound >= until) {
      return;
    }
    epoch_start = bound + 1;
  }
}

void ParallelEngine::RunLocal(Worker& w, Tick bound) {
  Tick t = 0;
  while (w.wheel.NextTime(bound, &t)) {
    SFS_DCHECK(t >= w.now);
    w.now = t;
    w.wheel.DrainCurrent([this, &w](const Event& ev) { DispatchEvent(w, ev); });
  }
}

void ParallelEngine::DrainMail(Worker& w, Tick epoch_start) {
  // Source order is fixed, and each mailbox preserves its producer's FIFO, so
  // delivery order is deterministic given the mail contents.
  for (auto& box : w.mail) {
    box.DrainAll([this, &w, epoch_start](Mail&& m) {
      Push(w, std::max(m.time, epoch_start), EventKind::kWakeup,
           static_cast<std::int32_t>(m.slot), static_cast<std::uint64_t>(m.home));
    });
  }
}

void ParallelEngine::IdleKick(Worker& w) {
  // Bound cross-worker placement latency: work made runnable (or stealable)
  // by another worker's events gets a dispatch attempt every epoch.  In a
  // partitioned run every idle owned CPU's shard is empty, so the kick picks
  // nothing and perturbs nothing.
  for (sched::CpuId cpu = w.cpu_begin; cpu < w.cpu_end; ++cpu) {
    if (cpus_[static_cast<std::size_t>(cpu)].running == sched::kInvalidThread) {
      Dispatch(w, cpu);
    }
  }
}

void ParallelEngine::DispatchEvent(Worker& w, const Event& ev) {
  ++w.events_processed;
  if (trace_) [[unlikely]] {
    // Exact on the serial path; at workers > 1 the hint is some worker's
    // clock, within one epoch of any record stamped with it.
    trace_->PublishNow(w.now);
  }
  switch (ev.kind) {
    case EventKind::kArrival:
      HandleArrival(w, static_cast<TaskSlot>(ev.a));
      break;
    case EventKind::kWakeup:
      HandleWakeup(w, static_cast<TaskSlot>(ev.a), static_cast<sched::CpuId>(ev.stamp));
      break;
    case EventKind::kCpuTimer:
      HandleCpuTimer(w, ev.a, ev.stamp);
      break;
    case EventKind::kPeriodic:
      HandlePeriodic(w, static_cast<std::size_t>(ev.a));
      break;
  }
}

ParallelEngine::TaskSlot ParallelEngine::SlotFor(sched::ThreadId tid) const {
  SFS_CHECK(tid >= 0 && static_cast<std::size_t>(tid) < tid_to_slot_.size());
  const std::int32_t slot = tid_to_slot_[static_cast<std::size_t>(tid)];
  SFS_CHECK(slot >= 0);
  return static_cast<TaskSlot>(slot);
}

const Task& ParallelEngine::task(sched::ThreadId tid) const { return tasks_[SlotFor(tid)]; }

Task& ParallelEngine::task(sched::ThreadId tid) { return tasks_[SlotFor(tid)]; }

bool ParallelEngine::HasTask(sched::ThreadId tid) const {
  return tid >= 0 && static_cast<std::size_t>(tid) < tid_to_slot_.size() &&
         tid_to_slot_[static_cast<std::size_t>(tid)] >= 0;
}

Tick ParallelEngine::ServiceIncludingRunning(sched::ThreadId tid) const {
  const Task& t = task(tid);
  Tick service = t.service();
  if (t.state() == Task::State::kRunning) {
    const Cpu& cpu = cpus_[static_cast<std::size_t>(t.last_cpu_)];
    SFS_DCHECK(cpu.running == tid);
    service += std::max<Tick>(0, now_ - cpu.run_start);
  }
  return service;
}

Tick ParallelEngine::total_context_switch_cost() const {
  Tick total = 0;
  for (const auto& w : workers_) {
    total += w->total_ctx_cost;
  }
  for (const auto& cpu : cpus_) {
    if (cpu.running != sched::kInvalidThread) {
      total += std::min(cpu.switch_cost, std::max<Tick>(0, now_ - cpu.dispatch_time));
    }
  }
  return total;
}

Tick ParallelEngine::idle_time() const {
  Tick total = 0;
  for (const auto& cpu : cpus_) {
    total += cpu.idle_accum;
    if (cpu.running == sched::kInvalidThread && cpu.idle_since >= 0) {
      total += now_ - cpu.idle_since;
    }
  }
  return total;
}

void ParallelEngine::Push(Worker& w, Tick time, EventKind kind, std::int32_t a,
                          std::uint64_t stamp) {
  SFS_DCHECK(time >= w.now);
  w.wheel.Push(time, Event{time, w.next_seq++, kind, a, stamp});
}

void ParallelEngine::PushWakeup(Worker& w, TaskSlot slot, Tick time, sched::CpuId home) {
  // Flat schedulers have no shards: any worker may process the wakeup under
  // the one global dispatch mutex, so it stays local.
  const int target = (locked_ && sharded_ != nullptr) ? OwnerOf(home) : w.id;
  if (target == w.id) {
    Push(w, time, EventKind::kWakeup, static_cast<std::int32_t>(slot),
         static_cast<std::uint64_t>(home));
    return;
  }
  ++w.mailed_wakeups;
  workers_[static_cast<std::size_t>(target)]->mail[static_cast<std::size_t>(w.id)].Push(
      Mail{slot, time, home});
}

void ParallelEngine::KillTask(sched::ThreadId tid) {
  SFS_CHECK(!parallel_running_);  // workers > 1: quiescent only
  Task& t = task(tid);
  SFS_CHECK(t.state_ != Task::State::kExited);
  sched::CpuId freed = sched::kInvalidCpu;
  switch (t.state_) {
    case Task::State::kRunning:
      // Dispatch stamped last_cpu_, and it holds while the task runs.
      freed = t.last_cpu_;
      SFS_DCHECK(cpus_[static_cast<std::size_t>(freed)].running == tid);
      StopRunning(*workers_[static_cast<std::size_t>(OwnerOf(freed))], freed);
      break;
    case Task::State::kNew:
      t.state_ = Task::State::kExited;
      return;
    default:
      break;
  }
  Worker& w = *workers_[0];
  if (t.state_ == Task::State::kBlocked) {
    scheduler_.Wakeup(tid);
    NotifySchedEvent(w, SchedEvent::kWakeup, t);
    t.state_ = Task::State::kRunnable;
  }
  if (t.state_ != Task::State::kExited) {
    scheduler_.RemoveThread(tid);
    NotifySchedEvent(w, SchedEvent::kDeparture, t);
    t.state_ = Task::State::kExited;
    if (exit_hook_) {
      exit_hook_(*this, t);
    }
  }
  if (freed != sched::kInvalidCpu) {
    Dispatch(*workers_[static_cast<std::size_t>(OwnerOf(freed))], freed);
  }
}

void ParallelEngine::HandleArrival(Worker& w, TaskSlot slot) {
  Task& t = tasks_[slot];
  if (t.state_ == Task::State::kExited) {
    return;  // killed before it arrived
  }
  SFS_CHECK(t.state_ == Task::State::kNew);
  const sched::ThreadId tid = t.tid();
  const Action first = t.behavior().Next(w.now);
  switch (first.kind) {
    case Action::Kind::kCompute: {
      SFS_CHECK(first.duration > 0);
      // Fields first: AddThread publishes the task to peer dispatchers.
      t.remaining_burst_ = first.duration;
      t.state_ = Task::State::kRunnable;
      sched::CpuId home = t.home_cpu_;
      {
        auto guard = LockLifecycleIf();
        scheduler_.AddThread(tid, t.weight_, t.home_cpu_);
        NotifySchedEvent(w, SchedEvent::kArrival, t);
        if (locked_ && sharded_ != nullptr) {
          home = sharded_->ShardOf(tid);  // where the policy actually put it
        }
      }
      PlaceRunnable(w, tid, home);
      break;
    }
    case Action::Kind::kBlock: {
      // Arrive asleep: register, then block immediately.  The whole sequence
      // sits under the lifecycle lock, so the momentarily-runnable task is
      // never grabbable.
      SFS_CHECK(first.duration > 0);
      sched::CpuId home = w.cpu_begin;
      {
        auto guard = LockLifecycleIf();
        scheduler_.AddThread(tid, t.weight_, t.home_cpu_);
        NotifySchedEvent(w, SchedEvent::kArrival, t);
        scheduler_.Block(tid);
        NotifySchedEvent(w, SchedEvent::kBlock, t);
        t.state_ = Task::State::kBlocked;
        if (sharded_ != nullptr) {
          // The wakeup must run on the worker owning this shard — the one
          // cross-worker mail source of a hinted workload gone unhinted.
          home = sharded_->ShardOf(tid);
        }
      }
      PushWakeup(w, slot, w.now + first.duration, home);
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

void ParallelEngine::HandleWakeup(Worker& w, TaskSlot slot, sched::CpuId home) {
  Task& t = tasks_[slot];
  if (t.state_ == Task::State::kExited) {
    return;  // killed while blocked; stale wakeup
  }
  SFS_CHECK(t.state_ == Task::State::kBlocked);
  const sched::ThreadId tid = t.tid();
  if (home < 0 || home >= scheduler_.num_cpus()) {
    home = w.cpu_begin;  // flat-policy wakeups carry no shard; any mutex works
  }
  // Peek the behaviour first (it depends only on `now`): the arm decides
  // which lock class the scheduler sequence below needs.
  t.behavior().OnWake(w.now);
  bool has_action = false;
  Action next{};
  if (t.remaining_burst_ <= 0) {
    next = t.behavior().Next(w.now);
    has_action = true;
  }
  if (has_action && next.kind == Action::Kind::kBlock) {
    SFS_CHECK(next.duration > 0);
    {
      auto guard = LockDispatchIf(home);
      t.state_ = Task::State::kRunnable;
      scheduler_.Wakeup(tid);
      NotifySchedEvent(w, SchedEvent::kWakeup, t);
      scheduler_.Block(tid);
      NotifySchedEvent(w, SchedEvent::kBlock, t);
      t.state_ = Task::State::kBlocked;
    }
    PushWakeup(w, slot, w.now + next.duration, home);
    return;
  }
  if (has_action && next.kind == Action::Kind::kExit) {
    {
      // Structural removal: full lifecycle lock (it also covers the Wakeup).
      auto guard = LockLifecycleIf();
      t.state_ = Task::State::kRunnable;
      scheduler_.Wakeup(tid);
      NotifySchedEvent(w, SchedEvent::kWakeup, t);
      scheduler_.RemoveThread(tid);
      NotifySchedEvent(w, SchedEvent::kDeparture, t);
      t.state_ = Task::State::kExited;
    }
    if (exit_hook_) {
      exit_hook_(*this, t);
    }
    return;
  }
  if (has_action) {
    SFS_CHECK(next.kind == Action::Kind::kCompute && next.duration > 0);
    t.remaining_burst_ = next.duration;
  }
  {
    auto guard = LockDispatchIf(home);
    t.state_ = Task::State::kRunnable;
    scheduler_.Wakeup(tid);
    NotifySchedEvent(w, SchedEvent::kWakeup, t);
  }
  PlaceRunnable(w, tid, home);
}

void ParallelEngine::HandleCpuTimer(Worker& w, sched::CpuId cpu_id, std::uint64_t stamp) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
  if (stamp != cpu.timer_stamp || cpu.running == sched::kInvalidThread) {
    return;  // superseded by an earlier charge/dispatch
  }
  StopRunning(w, cpu_id);
  Dispatch(w, cpu_id);
}

void ParallelEngine::HandlePeriodic(Worker& w, std::size_t idx) {
  SFS_CHECK(idx < periodic_hooks_.size());
  periodic_hooks_[idx].fn(*this);
  Push(w, w.now + periodic_hooks_[idx].period, EventKind::kPeriodic,
       static_cast<std::int32_t>(idx));
}

void ParallelEngine::PlaceRunnable(Worker& w, sched::ThreadId tid, sched::CpuId home) {
  // Idle owned processors first (the serial engine scans all processors; the
  // confinement to owned ones is the engine's one placement divergence at
  // workers > 1, bounded by the peers' epoch idle-kicks).
  for (sched::CpuId cpu_id = w.cpu_begin; cpu_id < w.cpu_end; ++cpu_id) {
    Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
    if (cpu.running == sched::kInvalidThread) {
      Dispatch(w, cpu_id);
      if (cpu.running != sched::kInvalidThread) {
        return;
      }
    }
  }
  w.preempt_elapsed.assign(cpus_.size(), 0);
  for (sched::CpuId cpu_id = w.cpu_begin; cpu_id < w.cpu_end; ++cpu_id) {
    const Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
    if (cpu.running != sched::kInvalidThread) {
      w.preempt_elapsed[static_cast<std::size_t>(cpu_id)] =
          std::max<Tick>(0, w.now - cpu.run_start);
    }
  }
  sched::CpuId victim = sched::kInvalidCpu;
  {
    auto guard = LockDispatchIf(home);
    // Re-validate under the re-acquired lock: between the wakeup/arrival
    // path's release of home's dispatch mutex and this hold, a peer may have
    // stolen the now-runnable thread to another shard (the probe would then
    // read a shard whose mutex we do not hold) or run it to exit.  Ask home's
    // own runnable queue whether it still holds the thread: that membership
    // is exact under home's mutex — every write that moves a thread onto or
    // off a shard holds that shard's lock — whereas the thread's recorded
    // shard (ShardOf) and its slot in the shards' shared entity table are
    // rewritten by a later steal between two other shards without home's
    // lock.  A stolen or exited thread simply forgoes the advisory probe;
    // the serial path (locked_ == false) short-circuits the check entirely.
    const bool still_home =
        !locked_ ||
        (scheduler_.Contains(tid) &&
         (sharded_ == nullptr || sharded_->shard(home).FindRunnable(tid) != nullptr));
    if (still_home) {
      victim = scheduler_.SuggestPreemption(tid, w.preempt_elapsed);
    }
  }
  if (victim == sched::kInvalidCpu) {
    return;
  }
  if (locked_ && OwnerOf(victim) != w.id) {
    return;  // cross-worker preemption forgone; the victim's own timer decides
  }
  SFS_CHECK(cpus_[static_cast<std::size_t>(victim)].running != sched::kInvalidThread);
  ++w.preemptions;
  if (trace_) [[unlikely]] {
    trace_->Record(victim, obs::TraceEventKind::kPreempt, w.now,
                   cpus_[static_cast<std::size_t>(victim)].running, tid);
  }
  StopRunning(w, victim);
  Dispatch(w, victim);
}

void ParallelEngine::StopRunning(Worker& w, sched::CpuId cpu_id) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
  const sched::ThreadId tid = cpu.running;
  SFS_CHECK(tid != sched::kInvalidThread);
  const TaskSlot slot = cpu.running_slot;
  Task& t = tasks_[slot];
  const Tick ran = std::max<Tick>(0, w.now - cpu.run_start);
  w.total_ctx_cost += std::min(cpu.switch_cost, std::max<Tick>(0, w.now - cpu.dispatch_time));
  cpu.switch_cost = 0;
  const Tick new_burst = std::max<Tick>(0, t.remaining_burst_ - ran);
  const bool finished = new_burst == 0;
  // Behaviour peeked before Charge publishes the task (see the file comment);
  // a preempted thread likewise learns of the preemption before a peer can
  // redispatch it and call OnDispatch.
  Action next{};
  if (finished) {
    next = t.behavior().Next(w.now);
  } else {
    t.behavior().OnPreempt(w.now);
  }
  t.service_ += ran;
  t.remaining_burst_ = new_burst;
  t.state_ = Task::State::kRunnable;
  if (!finished || next.kind == Action::Kind::kCompute) {
    if (finished) {
      SFS_CHECK(next.duration > 0);
      t.remaining_burst_ = next.duration;
    }
    auto guard = LockDispatchIf(cpu_id);
    scheduler_.Charge(tid, ran);
  } else if (next.kind == Action::Kind::kBlock) {
    SFS_CHECK(next.duration > 0);
    {
      // Charge-then-Block is atomic under the shard mutex, or a peer could
      // dispatch the thread in between (scheduler.h's contract).  After
      // running on `cpu_id` the entity lives on that shard, so the wakeup's
      // home is known without a table read.
      auto guard = LockDispatchIf(cpu_id);
      scheduler_.Charge(tid, ran);
      scheduler_.Block(tid);
      NotifySchedEvent(w, SchedEvent::kBlock, t);
      t.state_ = Task::State::kBlocked;
    }
    PushWakeup(w, slot, w.now + next.duration, cpu_id);
  } else {
    // Exit: a structural removal needs the full lifecycle lock, which also
    // sanctions the Charge.
    auto guard = LockLifecycleIf();
    scheduler_.Charge(tid, ran);
    scheduler_.RemoveThread(tid);
    NotifySchedEvent(w, SchedEvent::kDeparture, t);
    t.state_ = Task::State::kExited;
  }
  if (run_interval_hook_ && ran > 0) {
    run_interval_hook_(w.id, cpu.run_start, ran, cpu_id, tid);
  }
  if (trace_) [[unlikely]] {
    trace_->Record(cpu_id, obs::TraceEventKind::kCharge, w.now, tid, ran);
    if (ran > 0) {
      trace_->Record(cpu_id, obs::TraceEventKind::kRun, cpu.run_start, tid, ran);
    }
  }
  if (run_hist_ && ran > 0) [[unlikely]] {
    run_hist_->Record(locked_ ? w.id : 0, ran);
  }
  cpu.last_thread = tid;
  cpu.running = sched::kInvalidThread;
  cpu.idle_since = w.now;
  ++cpu.timer_stamp;  // invalidate any outstanding timer
  if (finished && next.kind == Action::Kind::kExit && exit_hook_) {
    exit_hook_(*this, t);
  }
}

void ParallelEngine::Dispatch(Worker& w, sched::CpuId cpu_id) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_id)];
  SFS_CHECK(cpu.running == sched::kInvalidThread);
  sched::ThreadId tid = sched::kInvalidThread;
  Tick quantum = 0;
  {
    auto guard = LockDispatchIf(cpu_id);
    tid = scheduler_.PickNext(cpu_id);
    if (tid != sched::kInvalidThread) {
      quantum = scheduler_.QuantumFor(tid);
    }
  }
  if (tid == sched::kInvalidThread) {
    return;  // stay idle; idle_since was set when the CPU was freed
  }
  // Marked running under the dispatch lock: the task is exclusively this
  // worker's until its next Charge, so the field writes below are unshared.
  const TaskSlot slot = SlotFor(tid);
  Task& t = tasks_[slot];
  SFS_CHECK(t.state_ == Task::State::kRunnable);
  SFS_CHECK(t.remaining_burst_ > 0);
  SFS_CHECK(quantum > 0);

  if (cpu.idle_since >= 0) {
    cpu.idle_accum += w.now - cpu.idle_since;
    cpu.idle_since = -1;
  }

  Tick switch_cost = 0;
  if (cpu.last_thread != tid) {
    ++w.context_switches;
    switch_cost = config_.context_switch_cost;
    if (config_.cache_restore_per_kb > 0 && t.working_set_kb_ > 0) {
      const Tick full = config_.cache_restore_per_kb * t.working_set_kb_;
      switch_cost += (t.last_cpu_ == cpu_id) ? full / 2 : full;
    }
  }
  if (t.last_cpu_ != sched::kInvalidCpu && t.last_cpu_ != cpu_id) {
    ++w.migrations;
  }
  t.last_cpu_ = cpu_id;
  ++w.dispatches;

  t.state_ = Task::State::kRunning;
  cpu.running = tid;
  cpu.running_slot = slot;
  cpu.dispatch_time = w.now;
  cpu.switch_cost = switch_cost;
  cpu.run_start = w.now + switch_cost;
  cpu.quantum_end = cpu.run_start + quantum;
  cpu.burst_end = cpu.run_start + std::min(t.remaining_burst_, kTickInfinity);
  ++cpu.timer_stamp;
  Push(w, std::min(cpu.quantum_end, cpu.burst_end), EventKind::kCpuTimer, cpu_id,
       cpu.timer_stamp);
  if (trace_) [[unlikely]] {
    trace_->Record(cpu_id, obs::TraceEventKind::kGrant, w.now, tid, quantum);
  }
  if (quantum_hist_) [[unlikely]] {
    quantum_hist_->Record(locked_ ? w.id : 0, quantum);
  }
  t.behavior().OnDispatch(w.now);
}

}  // namespace sfs::sim
