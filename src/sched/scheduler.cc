#include "src/sched/scheduler.h"

#include <new>

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

Scheduler::EntityTable::Chunk::~Chunk() {
  for (std::size_t i = 0; i < kChunkSize; ++i) {
    if ((filed >> i & 1) != 0) {
      slots[i].entity.~Entity();
    }
  }
}

Entity& Scheduler::EntityTable::Emplace(ThreadId tid) {
  SFS_CHECK(tid >= 0);
  const auto index = static_cast<std::size_t>(tid) / kChunkSize;
  if (index >= chunks_.size()) {
    chunks_.resize(index + 1);
  }
  std::unique_ptr<Chunk>& chunk = chunks_[index];
  if (chunk == nullptr) {
    chunk = std::make_unique<Chunk>();
    ++chunk_count_;
  }
  const std::uint64_t bit = std::uint64_t{1} << (static_cast<std::size_t>(tid) % kChunkSize);
  // Duplicate tid — in a shared table, held by any shard.
  SFS_CHECK((chunk->filed & bit) == 0);
  chunk->filed |= bit;
  Entity* e = ::new (&chunk->slots[static_cast<std::size_t>(tid) % kChunkSize].entity) Entity();
  e->tid = tid;
  return *e;
}

void Scheduler::EntityTable::Erase(Entity& e) {
  SFS_CHECK(Slot(e.tid) == &e);
  const auto tid = static_cast<std::size_t>(e.tid);
  std::unique_ptr<Chunk>& chunk = chunks_[tid / kChunkSize];
  e.~Entity();
  chunk->filed &= ~(std::uint64_t{1} << (tid % kChunkSize));
  if (chunk->filed == 0) {
    chunk.reset();
    --chunk_count_;
  }
}

void Scheduler::ShareEntityTable(EntityTable& table) {
  SFS_CHECK(live_.empty() && own_table_.chunk_count() == 0);
  table_ = &table;
}

Entity* Scheduler::Lookup(ThreadId tid) const {
  Entity* e = table_->Slot(tid);
  // Every entity filed in an owned table is this scheduler's; a shared
  // table's slot may hold a peer shard's.
  if (e == nullptr || table_ == &own_table_) {
    return e;
  }
  const auto row = static_cast<std::size_t>(e->live_index);
  return e->live_index >= 0 && row < live_.size() && live_[row] == e ? e : nullptr;
}

void Scheduler::StoreEntity(Entity& e) {
  SFS_CHECK(table_->Slot(e.tid) == &e && e.live_index < 0);
  e.live_index = static_cast<std::int32_t>(live_.size());
  live_.push_back(&e);
}

void Scheduler::ReleaseEntity(Entity& e) {
  SFS_CHECK(e.live_index >= 0 &&
            static_cast<std::size_t>(e.live_index) < live_.size() &&
            live_[static_cast<std::size_t>(e.live_index)] == &e);
  // The hot row travels inside the entity; only the live list needs the
  // swap-and-pop.
  Entity* last = live_.back();
  live_[static_cast<std::size_t>(e.live_index)] = last;
  last->live_index = e.live_index;
  live_.pop_back();
  e.live_index = -1;
}

void Scheduler::AddThread(ThreadId tid, Weight weight) {
  AddThread(tid, weight, kInvalidCpu);
}

void Scheduler::AddThread(ThreadId tid, Weight weight, CpuId home) {
  SFS_CHECK(tid != kInvalidThread);
  SFS_CHECK(IsValidWeight(weight));
  Entity& e = table_->Emplace(tid);
  e.weight() = weight;
  e.phi() = weight;
  e.runnable = true;
  // Placement hint: partition-aware policies admit to this shard instead of
  // their balanced choice (OnAdmit decides); flat policies never read it.
  if (home >= 0 && home < num_cpus()) {
    e.partition = home;
  }
  StoreEntity(e);
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
  ReleaseEntity(e);
  table_->Erase(e);
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

Entity& Scheduler::DetachEntity(ThreadId tid) {
  SFS_CHECK(table_ != &own_table_);  // migrations are between shared-table peers
  Entity& e = FindEntity(tid);
  SFS_CHECK(!e.running);
  if (e.runnable) {
    runnable_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  OnRemove(e);  // the policy dequeues it; all entity fields survive
  ReleaseEntity(e);
  return e;
}

void Scheduler::AttachEntity(Entity& e) {
  SFS_CHECK(!e.running);
  StoreEntity(e);  // CHECKs that `e` is filed in this table and detached
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
