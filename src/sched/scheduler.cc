#include "src/sched/scheduler.h"

#include "src/common/assert.h"

namespace sfs::sched {

Scheduler::Scheduler(const SchedConfig& config) : config_(config) {
  SFS_CHECK(config_.num_cpus >= 1);
  SFS_CHECK(config_.quantum > 0);
  SFS_CHECK(config_.affinity_tolerance >= 0);
  running_.assign(static_cast<std::size_t>(config_.num_cpus), kInvalidThread);
}

Scheduler::~Scheduler() = default;

Scheduler::DispatchGuard Scheduler::LockDispatch(CpuId cpu) {
  return DispatchGuard(DispatchMutex(cpu));
}

Scheduler::LifecycleGuard Scheduler::LockLifecycle() {
  // Every distinct dispatch mutex in ascending CPU-id order.  A policy's CPUs
  // either share one mutex (flat schedulers: lock it once, not num_cpus
  // times) or each own one (sched::Sharded), so comparing against the mutex
  // locked last is a complete dedup: O(p), not O(p^2).
  LifecycleGuard guard;
  guard.reserve(static_cast<std::size_t>(num_cpus()));
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    common::Mutex& mu = DispatchMutex(cpu);
    if (guard.empty() || guard.back().mutex() != &mu) {
      guard.emplace_back(mu);
    }
  }
  return guard;
}

common::Mutex& Scheduler::DispatchMutex(CpuId cpu) {
  (void)cpu;
  return dispatch_mu_;
}

void Scheduler::ShareEntityTable(EntityTable& table) {
  SFS_CHECK(live_.empty() && own_table_.empty());
  table_ = &table;
}

Entity* Scheduler::Lookup(ThreadId tid) const {
  if (tid < 0 || static_cast<std::size_t>(tid) >= table_->size()) {
    return nullptr;
  }
  Entity* e = (*table_)[static_cast<std::size_t>(tid)].get();
  // Every entity in an owned table is this scheduler's; a shared table's
  // slot may hold a peer shard's.
  if (e == nullptr || table_ == &own_table_) {
    return e;
  }
  const auto row = static_cast<std::size_t>(e->live_index);
  return e->live_index >= 0 && row < live_.size() && live_[row] == e ? e : nullptr;
}

void Scheduler::StoreEntity(std::unique_ptr<Entity> entity) {
  Entity& e = *entity;
  SFS_CHECK(e.tid >= 0);
  EntityTable& table = *table_;
  if (static_cast<std::size_t>(e.tid) >= table.size()) {
    table.resize(static_cast<std::size_t>(e.tid) + 1);
  }
  // Duplicate tid — in a shared table, held by any shard.
  SFS_CHECK(table[static_cast<std::size_t>(e.tid)] == nullptr);
  e.live_index = static_cast<std::int32_t>(live_.size());
  live_.push_back(&e);
  table[static_cast<std::size_t>(e.tid)] = std::move(entity);
}

std::unique_ptr<Entity> Scheduler::ReleaseEntity(Entity& e) {
  SFS_CHECK(e.live_index >= 0 &&
            static_cast<std::size_t>(e.live_index) < live_.size() &&
            live_[static_cast<std::size_t>(e.live_index)] == &e);
  const auto row = static_cast<std::size_t>(e.live_index);
  // The hot row travels inside the entity; only the live list needs the
  // swap-and-pop.
  Entity* last = live_.back();
  live_[row] = last;
  last->live_index = e.live_index;
  live_.pop_back();
  e.live_index = -1;
  return std::move((*table_)[static_cast<std::size_t>(e.tid)]);
}

void Scheduler::AddThread(ThreadId tid, Weight weight) {
  AddThread(tid, weight, kInvalidCpu);
}

void Scheduler::AddThread(ThreadId tid, Weight weight, CpuId home) {
  SFS_CHECK(tid != kInvalidThread);
  SFS_CHECK(IsValidWeight(weight));
  auto entity = std::make_unique<Entity>();
  entity->tid = tid;
  entity->weight() = weight;
  entity->phi() = weight;
  entity->runnable = true;
  // Placement hint: partition-aware policies admit to this shard instead of
  // their balanced choice (OnAdmit decides); flat policies never read it.
  if (home >= 0 && home < num_cpus()) {
    entity->partition = home;
  }
  Entity& e = *entity;
  StoreEntity(std::move(entity));
  runnable_count_.fetch_add(1, std::memory_order_relaxed);
  OnAdmit(e);
}

void Scheduler::RemoveThread(ThreadId tid) {
  Entity& e = FindEntity(tid);
  SFS_CHECK(!e.running);
  if (e.runnable) {
    runnable_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  OnRemove(e);
  ReleaseEntity(e);  // drops the entity
}

void Scheduler::Block(ThreadId tid) {
  Entity& e = FindEntity(tid);
  SFS_CHECK(e.runnable);
  SFS_CHECK(!e.running);
  e.runnable = false;
  runnable_count_.fetch_sub(1, std::memory_order_relaxed);
  OnBlocked(e);
}

void Scheduler::Wakeup(ThreadId tid) {
  Entity& e = FindEntity(tid);
  SFS_CHECK(!e.runnable);
  e.runnable = true;
  runnable_count_.fetch_add(1, std::memory_order_relaxed);
  OnWoken(e);
}

void Scheduler::SetWeight(ThreadId tid, Weight weight) {
  SFS_CHECK(IsValidWeight(weight));
  Entity& e = FindEntity(tid);
  const Weight old_weight = e.weight();
  e.weight() = weight;
  OnWeightChanged(e, old_weight);
}

ThreadId Scheduler::PickNext(CpuId cpu) {
  SFS_CHECK(cpu >= 0 && cpu < num_cpus());
  SFS_CHECK(running_[static_cast<std::size_t>(cpu)] == kInvalidThread);
  Entity* e = PickNextEntity(cpu);
  if (e == nullptr) {
    return kInvalidThread;
  }
  SFS_DCHECK(e->runnable && !e->running);
  e->running = true;
  e->cpu = cpu;
  running_[static_cast<std::size_t>(cpu)] = e->tid;
  return e->tid;
}

void Scheduler::Charge(ThreadId tid, Tick ran_for) {
  SFS_CHECK(ran_for >= 0);
  Entity& e = FindEntity(tid);
  SFS_CHECK(e.running);
  const CpuId cpu = e.cpu;
  e.running = false;
  e.last_cpu = cpu;
  e.cpu = kInvalidCpu;
  e.total_service += ran_for;
  running_[static_cast<std::size_t>(cpu)] = kInvalidThread;
  OnCharge(e, ran_for);
}

Tick Scheduler::QuantumFor(ThreadId tid) {
  (void)tid;
  return config_.quantum;
}

CpuId Scheduler::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  (void)woken;
  (void)elapsed;
  return kInvalidCpu;
}

std::unique_ptr<Entity> Scheduler::DetachEntity(ThreadId tid) {
  Entity& e = FindEntity(tid);
  SFS_CHECK(!e.running);
  if (e.runnable) {
    runnable_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  OnRemove(e);  // the policy dequeues it; all entity fields survive
  return ReleaseEntity(e);
}

void Scheduler::AttachEntity(std::unique_ptr<Entity> entity) {
  SFS_CHECK(entity != nullptr);
  Entity& e = *entity;
  SFS_CHECK(e.tid != kInvalidThread);
  SFS_CHECK(!e.running);
  StoreEntity(std::move(entity));
  if (e.runnable) {
    runnable_count_.fetch_add(1, std::memory_order_relaxed);
    OnAttach(e);
  }
  // A blocked entity needs no policy action until Wakeup.
}

bool Scheduler::Contains(ThreadId tid) const { return Lookup(tid) != nullptr; }

bool Scheduler::IsRunnable(ThreadId tid) const { return FindEntity(tid).runnable; }

bool Scheduler::IsRunning(ThreadId tid) const { return FindEntity(tid).running; }

Weight Scheduler::GetWeight(ThreadId tid) const { return FindEntity(tid).weight(); }

Weight Scheduler::GetPhi(ThreadId tid) const { return FindEntity(tid).phi(); }

Tick Scheduler::TotalService(ThreadId tid) const { return FindEntity(tid).total_service; }

ThreadId Scheduler::RunningOn(CpuId cpu) const {
  SFS_CHECK(cpu >= 0 && cpu < num_cpus());
  return running_[static_cast<std::size_t>(cpu)];
}

Entity& Scheduler::FindEntity(ThreadId tid) {
  Entity* e = Lookup(tid);
  SFS_CHECK(e != nullptr);
  return *e;
}

const Entity& Scheduler::FindEntity(ThreadId tid) const {
  const Entity* e = Lookup(tid);
  SFS_CHECK(e != nullptr);
  return *e;
}

}  // namespace sfs::sched
