#include "src/runtime/executor.h"

#include <algorithm>
#include <utility>

#include "src/common/assert.h"
#include "src/runtime/affinity.h"

namespace sfs::runtime {

namespace {

using Clock = std::chrono::steady_clock;

Tick ToTicks(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

std::chrono::microseconds FromTicks(Tick t) { return std::chrono::microseconds(t); }

std::int64_t DurationNs(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

Executor::Executor(sched::Scheduler& scheduler, const Config& config)
    : scheduler_(scheduler), config_(config), trace_(config.trace) {
  SFS_CHECK(config_.quantum > 0);
  if (config_.metrics != nullptr) {
    SFS_CHECK(config_.metrics->num_shards() >= scheduler.num_cpus());
    metrics_ = config_.metrics;
  } else {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>(scheduler.num_cpus());
    metrics_ = own_metrics_.get();
  }
  dispatch_hist_ = &metrics_->GetHistogram("exec/dispatch_latency_ns");
  lock_wait_hist_ = &metrics_->GetHistogram("exec/lock_wait_ns");
  wake_apply_hist_ = &metrics_->GetHistogram("exec/wake_apply_ns");
  wake_dispatch_hist_ = &metrics_->GetHistogram("exec/wake_to_dispatch_ns");
  if (trace_ != nullptr) {
    SFS_CHECK(trace_->clock() == obs::Trace::Clock::kWallNanos);
    SFS_CHECK(trace_->num_cpus() >= scheduler.num_cpus());
    scheduler_.SetTrace(trace_);
  }
}

Executor::~Executor() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->shutdown.store(true);
      {
        common::MutexLock lk(w->mu);
      }
      w->cv.NotifyAll();
      w->thread.join();
    }
  }
}

void Executor::AddTask(sched::ThreadId tid, sched::Weight weight,
                       std::function<WorkResult()> work) {
  SFS_CHECK(!started_);
  auto worker = std::make_unique<Worker>();
  worker->tid = tid;
  worker->weight = weight;
  worker->work = std::move(work);
  workers_.push_back(std::move(worker));
}

void Executor::AddTask(sched::ThreadId tid, sched::Weight weight,
                       std::function<bool()> work) {
  AddTask(tid, weight, [body = std::move(work)] {
    return body() ? WorkResult::Continue() : WorkResult::Done();
  });
}

void Executor::WorkerBody(Worker& w) {
  for (;;) {
    sched::CpuId cpu;
    {
      common::MutexLock lk(w.mu);
      while (!w.granted && !w.shutdown.load()) {
        w.cv.Wait(w.mu);
      }
      if (w.shutdown.load()) {
        return;
      }
      cpu = w.granted_cpu;
    }
    const Clock::time_point start = Clock::now();
    Report report;
    report.tid = w.tid;
    while (true) {
      if (w.preempt.load(std::memory_order_relaxed)) {
        report.preempt_observed = true;
        break;
      }
      const WorkResult result = w.work();
      if (result.kind != WorkResult::Kind::kContinue) {
        report.kind = result.kind;
        report.block_for = result.block_for;
        break;
      }
    }
    const Clock::time_point end = Clock::now();
    report.ran = std::max<Tick>(0, ToTicks(end - start));
    report.yielded_at = end;
    {
      common::MutexLock lk(w.mu);
      w.granted = false;
    }
    w.preempt.store(false);

    const bool done = report.kind == WorkResult::Kind::kDone;
    Cpu& dispatcher = *cpus_[static_cast<std::size_t>(cpu)];
    {
      common::MutexLock lk(dispatcher.mu);
      SFS_CHECK(!dispatcher.report.has_value());
      dispatcher.report = report;
    }
    dispatcher.cv.NotifyAll();
    if (done) {
      return;
    }
  }
}

void Executor::Grant(Worker& w, sched::CpuId cpu) {
  // The caller has already cleared any stale preempt flag under cpu.mu (the
  // same lock pokes hold while setting it), so the flag cannot be erased/lost
  // across this handoff.
  {
    common::MutexLock lk(w.mu);
    w.granted = true;
    w.granted_cpu = cpu;
  }
  w.cv.NotifyOne();
}

void Executor::KickAllParked() {
  // Epoch bumps on every slot (parked or not) preserve the old
  // version-counter semantics: a dispatcher between its token snapshot and
  // its park re-checks and falls through.  A kick at an empty slot skips the
  // wake syscall, so the all-busy case stays cheap.
  for (auto& c : cpus_) {
    c->park.Kick();
  }
  kicks_.fetch_add(static_cast<std::int64_t>(cpus_.size()), std::memory_order_relaxed);
}

void Executor::KickAfterStateChange(sched::CpuId hint) {
  // Only fan out when there is runnable work nobody is running
  // (runnable_count counts running threads too, so compare against the
  // granted-CPU count).  Both loads are racy snapshots; a stale read at worst
  // delays the fan-out by one idle recheck.
  if (scheduler_.runnable_count() <= running_cpus_.load(std::memory_order_relaxed)) {
    return;
  }
  // Round-robin from hint+1 so repeated kicks fan work out across CPUs
  // instead of hammering one neighbour.  The parked flag is advisory: a CPU
  // between its empty pick and its park is invisible here, and one that just
  // woke may eat a kick for nothing — either way the quantum-long idle
  // recheck bounds the cost, and no wakeup depends on this scan for
  // liveness: the home dispatcher's own wait ends at the wake deadline.
  const std::size_t n = cpus_.size();
  for (std::size_t i = 1; i <= n; ++i) {
    Cpu& c = *cpus_[(static_cast<std::size_t>(hint) + i) % n];
    if (c.parked.load(std::memory_order_acquire)) {
      c.park.Kick();
      kicks_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void Executor::StopAll() {
  stop_.store(true);
  KickAllParked();
  for (auto& cpu : cpus_) {
    {
      common::MutexLock lk(cpu->mu);
    }
    cpu->cv.NotifyAll();
  }
}

void Executor::ApplyDueWakeupsLocked(sched::CpuId cpu_idx, Clock::time_point now) {
  Cpu& cpu = *cpus_[static_cast<std::size_t>(cpu_idx)];
  while (!cpu.wakes.empty() && cpu.wakes.top().at <= now) {
    const PendingWakeup wake = cpu.wakes.top();
    cpu.wakes.pop();
    // Only this dispatcher files or applies the thread's wakeup, and a
    // blocked thread can neither exit nor migrate (scheduler contract), so
    // it is still blocked on the shard this dispatch lock covers.
    SFS_DCHECK(scheduler_.Contains(wake.tid) && !scheduler_.IsRunnable(wake.tid));
    SFS_DCHECK(scheduler_.HomeCpu(wake.tid) == sched::kInvalidCpu ||
               scheduler_.HomeCpu(wake.tid) == cpu_idx);
    scheduler_.Wakeup(wake.tid);
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    wake_apply_hist_->Record(cpu_idx, DurationNs(now - wake.at));
    WorkerByTid(wake.tid).wake_pending_ns.store(WallNs(wake.at), std::memory_order_relaxed);
    if (trace_) {
      // Own ring, keeping the per-CPU rings single-writer.
      trace_->Record(cpu_idx, obs::TraceEventKind::kWakeup, WallNs(now), wake.tid);
    }
    // reschedule_idle(): does the wakeup warrant preempting a running thread?
    // elapsed[c] approximates each CPU's uncharged run time from the
    // executor's own grant bookkeeping (advisory atomics — reading the
    // scheduler's per-CPU running table here would race foreign shards).
    const Tick now_ticks = ToTicks(now - t0_);
    cpu.elapsed_scratch.assign(cpus_.size(), 0);
    for (std::size_t c = 0; c < cpus_.size(); ++c) {
      if (cpus_[c]->running_hint.load(std::memory_order_relaxed) != sched::kInvalidThread) {
        cpu.elapsed_scratch[c] = std::max<Tick>(
            0, now_ticks - cpus_[c]->grant_at.load(std::memory_order_relaxed));
      }
    }
    const sched::CpuId target_cpu = scheduler_.SuggestPreemption(wake.tid, cpu.elapsed_scratch);
    if (target_cpu != sched::kInvalidCpu) {
      // Safe under this dispatch lock: sharded policies only ever suggest the
      // woken thread's home shard (ours), and flat policies' dispatch lock is
      // global.
      const sched::ThreadId target_tid = scheduler_.RunningOn(target_cpu);
      if (target_tid != sched::kInvalidThread) {
        cpu.pokes.push_back(PreemptPoke{target_cpu, target_tid});
      }
    }
  }
}

void Executor::ApplyPreemptPokes(Cpu& cpu) {
  for (const PreemptPoke& poke : cpu.pokes) {
    Cpu& target = *cpus_[static_cast<std::size_t>(poke.cpu)];
    common::MutexLock lk(target.mu);
    // Only preempt if that CPU's dispatcher still has this worker granted and
    // its report is not already posted; the flag store happens under
    // target.mu so it cannot race a Grant-time clear (which also holds
    // target.mu) and truncate an unrelated fresh slice.
    if (target.running_tid == poke.tid && !target.preempt_sent && !target.report.has_value()) {
      target.preempt_sent = true;
      target.preempt_sent_at = Clock::now();
      WorkerByTid(poke.tid).preempt.store(true, std::memory_order_relaxed);
    }
  }
  cpu.pokes.clear();
}

void Executor::HandleReport(sched::CpuId cpu_idx, const Report& report, bool preempt_sent,
                            Clock::time_point preempt_sent_at) {
  Worker* w = &WorkerByTid(report.tid);
  if (preempt_sent && report.preempt_observed) {
    // Raw time-point subtraction: both instants keep the clock's native
    // resolution, so the latency is not the difference of two independently
    // truncated values.  (A negative value is still possible if the worker
    // was already past its flag check when the flag landed; clamp to zero.)
    const double latency_us =
        static_cast<double>(DurationNs(report.yielded_at - preempt_sent_at)) / 1000.0;
    cpus_[static_cast<std::size_t>(cpu_idx)]->preempt_latencies.Add(
        std::max(0.0, latency_us));
    preemptions_.fetch_add(1, std::memory_order_relaxed);
  }

  if (trace_) {
    // Own ring: HandleReport always runs on cpu_idx's dispatcher thread.
    trace_->Record(cpu_idx, obs::TraceEventKind::kCharge, WallNs(report.yielded_at),
                   report.tid, report.ran * 1000);
  }
  switch (report.kind) {
    case WorkResult::Kind::kContinue: {
      auto guard = scheduler_.LockDispatch(cpu_idx);
      scheduler_.Charge(report.tid, report.ran);
      w->cpu_time += report.ran;
      break;
    }
    case WorkResult::Kind::kDone: {
      {
        auto guard = scheduler_.LockLifecycle();
        scheduler_.Charge(report.tid, report.ran);
        w->cpu_time += report.ran;
        scheduler_.RemoveThread(report.tid);
        if (trace_) {
          trace_->RecordLifecycle(obs::TraceEventKind::kDeparture,
                                  WallNs(report.yielded_at), report.tid);
        }
      }
      if (active_.fetch_sub(1) == 1) {
        StopAll();
      }
      break;
    }
    case WorkResult::Kind::kBlock: {
      {
        // Sanctioned lifecycle relaxation (scheduler.h): the thread just ran
        // on this CPU, so this is its home shard and LockDispatch alone
        // brackets Charge-then-Block atomically against picks and steals
        // (both lock this shard).  The block record goes to our own CPU ring,
        // keeping the per-CPU rings single-writer.
        auto guard = scheduler_.LockDispatch(cpu_idx);
        scheduler_.Charge(report.tid, report.ran);
        w->cpu_time += report.ran;
        scheduler_.Block(report.tid);
        if (trace_) {
          trace_->Record(cpu_idx, obs::TraceEventKind::kBlock, WallNs(report.yielded_at),
                         report.tid, report.block_for * 1000);
        }
      }
      // This CPU is the thread's home until it wakes, so this dispatcher
      // times the wakeup too.
      cpus_[static_cast<std::size_t>(cpu_idx)]->wakes.push(
          PendingWakeup{Clock::now() + FromTicks(report.block_for), report.tid});
      break;
    }
  }
  // Work conservation: the charge (and any block/exit) changed scheduler
  // state; an idle CPU may now have work to pick or steal.
  KickAfterStateChange(cpu_idx);
}

void Executor::DispatcherLoop(sched::CpuId cpu_idx) {
  Cpu& cpu = *cpus_[static_cast<std::size_t>(cpu_idx)];
  if (config_.pin_dispatchers) {
    // Shard-to-core placement: dispatcher c (and every slice it grants) runs
    // on core c mod cores.  Best-effort — a failed pin just leaves the thread
    // floating, as before.
    PinCurrentThreadToCore(static_cast<int>(cpu_idx) % std::max(1, HardwareCores()));
  }
  while (!stop_.load()) {
    if (Clock::now() >= wall_end_) {
      break;
    }
    // Park-token snapshot BEFORE the final look for work (parking.h
    // protocol): any kick landing after this instant cancels the park below,
    // so a wakeup pushed between our empty pick and our park is never lost.
    const common::ParkingSlot::Token park_token = cpu.park.Prepare();
    sched::ThreadId tid = sched::kInvalidThread;
    Tick quantum = config_.quantum;
    const Clock::time_point pick_start = Clock::now();
    Clock::time_point lock_acquired;
    {
      auto guard = scheduler_.LockDispatch(cpu_idx);
      lock_acquired = Clock::now();
      if (trace_) {
        // Timestamp hint for the scheduler's own steal/rebalance records.
        trace_->PublishNow(WallNs(lock_acquired));
      }
      // One decision batch per lock hold: due wakeups, then the pick.
      ApplyDueWakeupsLocked(cpu_idx, lock_acquired);
      tid = scheduler_.PickNext(cpu_idx);
      if (tid != sched::kInvalidThread) {
        quantum = std::min(quantum, std::max<Tick>(1, scheduler_.QuantumFor(tid)));
      }
    }
    ApplyPreemptPokes(cpu);  // outside the guard: Cpu::mu is a leaf lock
    const Clock::time_point picked = Clock::now();
    const std::int64_t lock_wait_ns = DurationNs(lock_acquired - pick_start);
    lock_wait_hist_->Record(cpu_idx, lock_wait_ns);

    if (tid == sched::kInvalidThread) {
      // Nothing runnable here: park on our own slot until our next wake
      // deadline.  Peers kick this slot (baton passing, shutdown); the
      // quantum bound is only the backstop for the advisory parked-flag scan
      // in KickAfterStateChange.
      const Clock::time_point park_deadline =
          std::min({wall_end_, Clock::now() + FromTicks(config_.quantum), cpu.next_wake()});
      cpu.parked.store(true, std::memory_order_seq_cst);
      if (!stop_.load()) {
        cpu.park.ParkUntil(park_token, park_deadline);
      }
      cpu.parked.store(false, std::memory_order_relaxed);
      continue;
    }

    const std::int64_t dispatch_ns = DurationNs(picked - pick_start);
    dispatch_hist_->Record(cpu_idx, dispatch_ns);
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    if (trace_) {
      trace_->Record(cpu_idx, obs::TraceEventKind::kLockWait, WallNs(lock_acquired), tid,
                     lock_wait_ns);
      trace_->Record(cpu_idx, obs::TraceEventKind::kPick, WallNs(picked), tid,
                     dispatch_ns - lock_wait_ns);
      trace_->Record(cpu_idx, obs::TraceEventKind::kGrant, WallNs(picked), tid,
                     quantum * 1000);  // granted quantum, ns
    }

    Worker* w = &WorkerByTid(tid);
    // Wake-to-dispatch sample: if this grant ends a pending wakeup, the
    // latency runs from the wake deadline to this pick.
    const std::int64_t wake_due_ns =
        w->wake_pending_ns.exchange(-1, std::memory_order_relaxed);
    if (wake_due_ns >= 0) {
      wake_dispatch_hist_->Record(cpu_idx,
                                  std::max<std::int64_t>(0, WallNs(picked) - wake_due_ns));
    }
    {
      common::MutexLock lk(cpu.mu);
      // Clear any stale preempt flag (e.g. a poke that raced with the
      // worker's previous voluntary yield) before publishing running_tid:
      // pokes only store the flag while holding cpu.mu *after* seeing
      // running_tid, so a wakeup preemption can never be erased by this clear.
      w->preempt.store(false);
      cpu.running_tid = tid;
      cpu.preempt_sent = false;
    }
    cpu.grant_at.store(ToTicks(picked - t0_), std::memory_order_relaxed);
    cpu.running_hint.store(tid, std::memory_order_relaxed);
    running_cpus_.fetch_add(1, std::memory_order_relaxed);
    Grant(*w, cpu_idx);
    // A dispatch is itself a state change: a previously unstealable shard may
    // now be busy, making its queued threads fair game for idle thieves.
    // This is the baton pass — one more parked CPU wakes if runnable work
    // remains beyond what is running.
    KickAfterStateChange(cpu_idx);

    const Clock::time_point deadline = std::min(picked + FromTicks(quantum), wall_end_);
    Report report;
    bool have_report = false;
    bool preempt_sent = false;
    Clock::time_point preempt_sent_at{};
    while (!have_report) {
      // Mid-quantum wake service: a wakeup that comes due while we are busy
      // must become runnable (and possibly preempt, or be stolen by a kicked
      // peer) now, not when this slice ends, so wait no later than the next
      // wake deadline.
      const Clock::time_point wait_until = std::min(deadline, cpu.next_wake());
      bool wake_due = false;
      {
        common::MutexLock lk(cpu.mu);
        while (!cpu.report.has_value()) {
          if (cpu.cv.WaitUntil(cpu.mu, wait_until) == std::cv_status::timeout) {
            break;
          }
        }
        if (!cpu.report.has_value() && wait_until < deadline) {
          wake_due = true;
        } else if (!cpu.report.has_value()) {
          // Quantum expired (or the run is ending): preempt the worker —
          // unless a wakeup poke already preempted this slice, whose earlier
          // flag-set instant must survive or the recorded preempt-to-yield
          // latency would shrink.
          if (!cpu.preempt_sent) {
            cpu.preempt_sent = true;
            cpu.preempt_sent_at = Clock::now();
            w->preempt.store(true, std::memory_order_relaxed);
          }
          // The worker is guaranteed to observe the flag within one work unit.
          while (!cpu.report.has_value()) {
            cpu.cv.Wait(cpu.mu);
          }
        }
        if (cpu.report.has_value()) {
          report = *cpu.report;
          cpu.report.reset();
          preempt_sent = cpu.preempt_sent;
          preempt_sent_at = cpu.preempt_sent_at;
          cpu.preempt_sent = false;
          cpu.running_tid = sched::kInvalidThread;
          have_report = true;
        }
      }
      if (wake_due) {
        // Apply the due wakeups under our dispatch lock, poke any suggested
        // preemption (possibly our own slice), hand spare work to a parked
        // peer, then resume waiting out the quantum.
        {
          auto guard = scheduler_.LockDispatch(cpu_idx);
          const Clock::time_point now = Clock::now();
          if (trace_) {
            trace_->PublishNow(WallNs(now));
          }
          ApplyDueWakeupsLocked(cpu_idx, now);
        }
        ApplyPreemptPokes(cpu);
        KickAfterStateChange(cpu_idx);
      }
    }
    cpu.running_hint.store(sched::kInvalidThread, std::memory_order_relaxed);
    running_cpus_.fetch_sub(1, std::memory_order_relaxed);
    if (trace_) {
      trace_->Record(cpu_idx, obs::TraceEventKind::kRun, WallNs(picked), tid,
                     DurationNs(report.yielded_at - picked));
      if (preempt_sent && report.preempt_observed) {
        // Recorded here (not where the flag was set) so pokers never write
        // another CPU's ring; arg = flag-set-to-yield latency, ns.
        trace_->Record(cpu_idx, obs::TraceEventKind::kPreempt, WallNs(preempt_sent_at),
                       tid,
                       std::max<std::int64_t>(
                           0, DurationNs(report.yielded_at - preempt_sent_at)));
      }
    }
    HandleReport(cpu_idx, report, preempt_sent, preempt_sent_at);
  }
  // No slice is ever in flight here: an iteration that grants always waits
  // out the report (preempting at deadline = min(quantum end, wall_end_), so
  // the wall limit itself winds the last slice down) and charges it before
  // the loop re-checks stop_/wall_end_.
  {
    common::MutexLock lk(cpu.mu);
    SFS_CHECK(cpu.running_tid == sched::kInvalidThread);
  }
}

Tick Executor::Run(Tick wall_limit) {
  SFS_CHECK(!started_);
  started_ = true;

  t0_ = Clock::now();
  wall_end_ = t0_ + FromTicks(wall_limit);

  cpus_.clear();
  for (int c = 0; c < scheduler_.num_cpus(); ++c) {
    cpus_.push_back(std::make_unique<Cpu>());
  }

  // Dispatch routing: tid-indexed flat vector (the scheduler's entity-table
  // idiom), so the wakeup path costs an indexed load instead of a hash probe.
  worker_by_tid_.clear();
  sched::ThreadId max_tid = -1;
  for (const auto& w : workers_) {
    SFS_CHECK(w->tid >= 0);  // flat routing needs small non-negative task ids
    max_tid = std::max(max_tid, w->tid);
  }
  worker_by_tid_.assign(static_cast<std::size_t>(max_tid + 1), nullptr);
  for (auto& w : workers_) {
    Worker*& slot = worker_by_tid_[static_cast<std::size_t>(w->tid)];
    SFS_CHECK(slot == nullptr);  // duplicate task ids would corrupt dispatch routing
    slot = w.get();
  }

  active_.store(static_cast<int>(workers_.size()));
  if (workers_.empty()) {
    stop_.store(true);
  }

  if (trace_) {
    trace_->set_epoch_ns(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0_.time_since_epoch())
            .count());
    trace_->PublishNow(0);
  }

  // Register and launch every worker (they start waiting for a grant).
  {
    auto guard = scheduler_.LockLifecycle();
    for (auto& w : workers_) {
      scheduler_.AddThread(w->tid, w->weight);
      if (trace_) {
        trace_->RecordLifecycle(obs::TraceEventKind::kArrival, WallNs(Clock::now()),
                                w->tid);
      }
    }
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerBody(*worker); });
  }

  std::vector<std::thread> dispatchers;
  dispatchers.reserve(cpus_.size());
  for (std::size_t c = 0; c < cpus_.size(); ++c) {
    dispatchers.emplace_back(
        [this, c] { DispatcherLoop(static_cast<sched::CpuId>(c)); });
  }

  for (auto& d : dispatchers) {
    d.join();
  }
  StopAll();

  for (const auto& cpu : cpus_) {
    for (const double sample : cpu->preempt_latencies.samples()) {
      preempt_latencies_.Add(sample);
    }
  }

  // Unregister tasks that never finished, then stop their (waiting) threads.
  {
    auto guard = scheduler_.LockLifecycle();
    for (auto& w : workers_) {
      if (scheduler_.Contains(w->tid)) {
        scheduler_.RemoveThread(w->tid);
      }
    }
  }
  for (auto& w : workers_) {
    w->shutdown.store(true);
    {
      common::MutexLock lk(w->mu);
    }
    w->cv.NotifyAll();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
  return ToTicks(Clock::now() - t0_);
}

Tick Executor::CpuTime(sched::ThreadId tid) const {
  for (const auto& w : workers_) {
    if (w->tid == tid) {
      return w->cpu_time;
    }
  }
  SFS_CHECK(false);
  return 0;
}

}  // namespace sfs::runtime
