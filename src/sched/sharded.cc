#include "src/sched/sharded.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "src/common/assert.h"

namespace sfs::sched {

void TranslateMigratedTags(Entity& e, double v_src, double v_dst, double coupling) {
  const double origin = v_dst + coupling * (v_src - v_dst);
  e.start_tag() = origin + std::max(0.0, e.start_tag() - v_src);
  e.finish_tag() = e.start_tag();
}

ShardedScheduler::ShardedScheduler(const SchedConfig& config, ShardFactory make_shard)
    : Scheduler(config) {
  SFS_CHECK(config.shard_rebalance_period >= 0);
  SFS_CHECK(config.shard_coupling >= 0.0 && config.shard_coupling <= 1.0);
  SchedConfig shard_config = config;
  shard_config.num_cpus = 1;
  shards_.reserve(static_cast<std::size_t>(num_cpus()));
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    auto shard = std::make_unique<Shard>();
    shard->scheduler = make_shard(shard_config);
    SFS_CHECK(shard->scheduler != nullptr);
    SFS_CHECK(shard->scheduler->num_cpus() == 1);
    static_cast<Scheduler&>(*shard->scheduler).ShareEntityTable(entities_);
    if (common::lock_order::Enabled()) {
      // Rank the dispatch-mutex family so the validator checks ascending
      // CPU-id order across every ShardedScheduler instance in the process.
      common::lock_order::SetRank(&shard->mu, common::kLockClassDispatch,
                                  static_cast<std::uint32_t>(cpu));
    }
    shards_.push_back(std::move(shard));
  }
  stealable_ = Bitmap((shards_.size() + 63) / 64);
  runnable_ = Bitmap(stealable_.size());
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    SyncShardBits(cpu);  // an empty shard may still have to act on a pick
  }
  name_ = "sharded-" + std::string(shards_.front()->scheduler->name());
}

ShardedScheduler::~ShardedScheduler() = default;

Tick ShardedScheduler::QuantumFor(ThreadId tid) {
  return ShardAt(FindEntity(tid).partition).scheduler->QuantumFor(tid);
}

CpuId ShardedScheduler::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& e = FindEntity(woken);
  if (!e.runnable || e.running) {
    return kInvalidCpu;
  }
  const CpuId home = e.partition;
  Shard& shard = ShardAt(home);
  shard.elapsed_scratch[0] = elapsed[static_cast<std::size_t>(home)];
  const CpuId inner = shard.scheduler->SuggestPreemption(woken, shard.elapsed_scratch);
  return inner == 0 ? home : kInvalidCpu;
}

CpuId ShardedScheduler::ShardOf(ThreadId tid) const { return FindEntity(tid).partition; }

std::vector<double> ShardedScheduler::ShardRunnableWeights() const {
  std::vector<double> weights;
  weights.reserve(shards_.size());
  for (const auto& shard : shards_) {
    weights.push_back(shard->runnable_weight.load(std::memory_order_relaxed));
  }
  return weights;
}

const GpsSchedulerBase& ShardedScheduler::shard(CpuId cpu) const {
  return *ShardAt(cpu).scheduler;
}

GpsSchedulerBase& ShardedScheduler::shard(CpuId cpu) { return *ShardAt(cpu).scheduler; }

common::Mutex& ShardedScheduler::DispatchMutex(CpuId cpu) { return ShardAt(cpu).mu; }

common::UniqueMutexLock ShardedScheduler::LockVictimShard(CpuId self, CpuId victim) {
  SFS_DCHECK(victim != self);
  if (victim > self) {
    return common::UniqueMutexLock(ShardAt(victim).mu);
  }
  return common::UniqueMutexLock(ShardAt(victim).mu, std::try_to_lock);
}

CpuId ShardedScheduler::LightestShard() const {
  CpuId best = 0;
  for (CpuId cpu = 1; cpu < num_cpus(); ++cpu) {
    if (RunnableWeightOf(cpu) < RunnableWeightOf(best)) {
      best = cpu;
    }
  }
  return best;
}

void ShardedScheduler::OnAdmit(Entity& e) {
  // A pre-set partition is a placement hint (Scheduler::AddThread's `home`
  // overload): admit there instead of balancing, so placement is a pure
  // function of the workload — the parallel engine's partitioned
  // determinism contract rests on this.
  const CpuId target =
      (e.partition >= 0 && e.partition < num_cpus()) ? e.partition : LightestShard();
  e.partition = target;
  e.phi() = e.weight();  // uniprocessor shards: every weight assignment is feasible
  Shard& shard = ShardAt(target);
  AddRunnableWeight(shard, e.weight());
  shard.scheduler->AddThread(e.tid, e.weight());
  SyncShardBits(target);
}

void ShardedScheduler::OnRemove(Entity& e) {
  Shard& shard = ShardAt(e.partition);
  if (e.runnable) {
    AddRunnableWeight(shard, -e.weight());
  }
  shard.scheduler->RemoveThread(e.tid);
  SyncShardBits(e.partition);
}

void ShardedScheduler::OnBlocked(Entity& e) {
  Shard& shard = ShardAt(e.partition);
  AddRunnableWeight(shard, -e.weight());
  shard.scheduler->Block(e.tid);
  SyncShardBits(e.partition);
}

void ShardedScheduler::OnWoken(Entity& e) {
  // Wakes rejoin their home shard (cache affinity); imbalance this creates is
  // repaired by stealing/rebalancing, not by re-placing the waker.
  Shard& shard = ShardAt(e.partition);
  AddRunnableWeight(shard, e.weight());
  shard.scheduler->Wakeup(e.tid);
  SyncShardBits(e.partition);
}

void ShardedScheduler::OnWeightChanged(Entity& e, Weight old_weight) {
  if (e.runnable) {
    AddRunnableWeight(ShardAt(e.partition), e.weight() - old_weight);
  }
  e.phi() = e.weight();
  ShardAt(e.partition).scheduler->SetWeight(e.tid, e.weight());
}

Entity* ShardedScheduler::PickNextEntity(CpuId cpu) {
  MaybeRebalance(cpu);
  ThreadId tid = ShardAt(cpu).scheduler->PickNext(0);
  if (tid == kInvalidThread && config().shard_steal == ShardStealPolicy::kMaxSurplus) {
    tid = TrySteal(cpu);
  }
  if (tid == kInvalidThread) {
    SyncShardBits(cpu);  // an empty pick may have acted (an SFS shard rebased)
    return nullptr;
  }
  // The processor is busy now: a steal source if its shard queues another.
  Shard& shard = ShardAt(cpu);
  SetStealSource(shard, shard.scheduler->runnable_count() >= 2);
  return &FindEntity(tid);
}

void ShardedScheduler::OnCharge(Entity& e, Tick ran_for) {
  Shard& shard = ShardAt(e.partition);
  shard.scheduler->Charge(e.tid, ran_for);
  SetStealSource(shard, false);  // the processor is free again
}

std::uint64_t ShardedScheduler::PickMask(std::size_t word) const {
  if (config().shard_rebalance_period > 0 ||
      (config().shard_steal == ShardStealPolicy::kMaxSurplus &&
       steal_sources_.load(std::memory_order_relaxed) > 0)) {
    return ~std::uint64_t{0};
  }
  return runnable_[word].load(std::memory_order_relaxed);
}

void ShardedScheduler::MaybeRebalance(CpuId dispatching_cpu) {
  if (config().shard_rebalance_period <= 0 ||
      decisions_since_rebalance_.fetch_add(1, std::memory_order_relaxed) + 1 <
          config().shard_rebalance_period) {
    return;
  }
  // Pull-based greedy repartitioning: the dispatching CPU's shard pulls the
  // highest-surplus movable thread from the heaviest shard while each move
  // strictly shrinks the imbalance (candidate weight < gap).  Pulling into
  // the shard that is about to dispatch guarantees migrated work is served
  // immediately — pushing toward an idle processor with no pending dispatch
  // would park it indefinitely.
  bool acted = false;
  for (int iteration = 0; iteration < thread_count(); ++iteration) {
    CpuId heavy = 0;
    for (CpuId cpu = 1; cpu < num_cpus(); ++cpu) {
      if (RunnableWeightOf(cpu) > RunnableWeightOf(heavy)) {
        heavy = cpu;
      }
    }
    if (heavy == dispatching_cpu) {
      break;
    }
    const double gap = RunnableWeightOf(heavy) - RunnableWeightOf(dispatching_cpu);
    if (gap <= 0.0) {
      acted = true;  // balanced from this shard's point of view: pass complete
      break;
    }
    common::UniqueMutexLock victim_lock = LockVictimShard(dispatching_cpu, heavy);
    if (!victim_lock.owns_lock()) {
      break;  // contended victim: retry at the next decision
    }
    Entity* candidate = ShardAt(heavy).scheduler->PickMigrationCandidate(/*max_weight=*/gap);
    if (candidate == nullptr) {
      break;
    }
    Migrate(candidate->tid, heavy, dispatching_cpu, /*steal=*/false);
    acted = true;
  }
  // When this processor's shard could not act (it *is* the heaviest, or the
  // heavy shard had nothing movable), retry at the very next decision —
  // likely on another CPU — instead of waiting out a whole fresh period.
  decisions_since_rebalance_.store(acted ? 0 : config().shard_rebalance_period,
                                   std::memory_order_relaxed);
}

ShardedScheduler::StealVictim ShardedScheduler::FindStealVictim(CpuId thief) {
  // Victim: across all other shards, the stealable (runnable, not running)
  // thread with the greatest phi-weighted lead over its shard's virtual time.
  // Each shard nominates its own best candidate; the thief prefers a
  // cache-warm nominee (last ran here) within affinity_tolerance of the best.
  // Each source shard is evaluated under its own dispatch mutex (nominations
  // are recorded by tid, not entity pointer, since a peer may act on the
  // shard once its lock is released).  Only shards whose stealable bit is set
  // are visited: any other shard has no candidate on a busy processor.
  StealVictim best;
  double best_score = 0.0;
  StealVictim affine;
  double affine_score = 0.0;
  for (std::size_t word = 0; word < stealable_.size(); ++word) {
    for (std::uint64_t bits = stealable_[word].load(std::memory_order_relaxed); bits != 0;
         bits &= bits - 1) {
      const auto source = static_cast<CpuId>(word * 64 + std::countr_zero(bits));
      if (source == thief) {
        continue;
      }
      common::UniqueMutexLock source_lock = LockVictimShard(thief, source);
      if (!source_lock.owns_lock()) {
        continue;  // contended source: its own dispatcher is serving it anyway
      }
      // Only steal from shards whose processor is busy: a queued thread on an
      // idle source processor will be served locally (cache-warm) as soon as
      // that processor dispatches — the engine offers every idle CPU whose
      // shard can dispatch a wakeup — so pulling it across shards would be a
      // gratuitous migration.
      if (RunningOn(source) == kInvalidThread) {
        continue;
      }
      double score = 0.0;
      const Entity* candidate =
          ShardAt(source).scheduler->PickMigrationCandidate(/*max_weight=*/0.0, &score);
      if (candidate == nullptr) {
        continue;
      }
      if (best.tid == kInvalidThread || score > best_score ||
          (score == best_score && candidate->tid < best.tid)) {
        best = {candidate->tid, source};
        best_score = score;
      }
      // Cache warmth lives on the outer entity (inner shards only ever see
      // their single local processor 0).
      if (FindEntity(candidate->tid).last_cpu == thief &&
          (affine.tid == kInvalidThread || score > affine_score ||
           (score == affine_score && candidate->tid < affine.tid))) {
        affine = {candidate->tid, source};
        affine_score = score;
      }
    }
  }
  if (affine.tid != kInvalidThread && affine.tid != best.tid &&
      affine_score + static_cast<double>(config().affinity_tolerance) >= best_score) {
    return affine;
  }
  return best;
}

ThreadId ShardedScheduler::TrySteal(CpuId thief) {
  const StealVictim victim = FindStealVictim(thief);
  if (victim.tid == kInvalidThread) {
    return kInvalidThread;
  }
  common::UniqueMutexLock victim_lock = LockVictimShard(thief, victim.shard);
  if (!victim_lock.owns_lock()) {
    return kInvalidThread;  // contended since nomination: give up this round
  }
  // Re-validate: the victim shard's dispatcher may have dispatched, blocked or
  // migrated the nominee between the scan and this reacquisition, and a peer
  // may since have moved it on between two other shards.  (Always valid
  // single-threaded, where nothing ran in between.)  Checked by walking the
  // source's own runnable queue, which the victim lock held here guards: the
  // nominee's slot in the shared entity table, and its outer entity, may be
  // being rewritten under locks we do not hold.
  const Entity* nominee = ShardAt(victim.shard).scheduler->FindRunnable(victim.tid);
  if (nominee == nullptr || nominee->running) {
    return kInvalidThread;
  }
  Migrate(victim.tid, victim.shard, thief, /*steal=*/true);
  return ShardAt(thief).scheduler->PickNext(0);
}

void ShardedScheduler::SyncShardBits(CpuId cpu) {
  Shard& shard = ShardAt(cpu);
  const GpsSchedulerBase& inner = *shard.scheduler;
  const int runnable = inner.runnable_count();
  AssignBit(stealable_, cpu, runnable >= 2);
  AssignBit(runnable_, cpu, runnable >= 1 || !inner.EmptyPickIsNoop());
  SetStealSource(shard, runnable >= 2 && inner.RunningOn(0) != kInvalidThread);
}

void ShardedScheduler::SetStealSource(Shard& shard, bool steal_source) {
  if (steal_source != shard.steal_source) {
    shard.steal_source = steal_source;
    steal_sources_.fetch_add(steal_source ? 1 : -1, std::memory_order_relaxed);
  }
}

void ShardedScheduler::Migrate(ThreadId tid, CpuId from, CpuId to, bool steal) {
  // Caller holds both shard mutexes (or is single-threaded): the source and
  // destination inner schedulers and the outer entity are all stable here.
  SFS_DCHECK(from != to);
  Scheduler& src = *ShardAt(from).scheduler;
  Scheduler& dst = *ShardAt(to).scheduler;
  // Read both timelines before detaching: removing the entity can move the
  // source's virtual time (it may hold the minimum tag).
  const double v_src = src.LocalVirtualTime();
  const double v_dst = dst.LocalVirtualTime();
  std::unique_ptr<Entity> inner = src.DetachEntity(tid);
  SFS_CHECK(inner->runnable && !inner->running);
  TranslateMigratedTags(*inner, v_src, v_dst, config().shard_coupling);
  dst.AttachEntity(std::move(inner));
  Entity& outer = FindEntity(tid);
  AddRunnableWeight(ShardAt(from), -outer.weight());
  AddRunnableWeight(ShardAt(to), outer.weight());
  SyncShardBits(from);
  SyncShardBits(to);
  outer.partition = to;
  (steal ? steals_ : rebalance_migrations_).fetch_add(1, std::memory_order_relaxed);
  // Both migration kinds execute on `to`'s dispatch path (the thief, or the
  // rebalancing dispatcher pulling work), so recording into ring `to`
  // preserves the one-writer-per-ring contract.
  if (trace_) [[unlikely]] {
    trace_->Record(to, steal ? obs::TraceEventKind::kSteal : obs::TraceEventKind::kRebalance,
                   trace_->now_hint(), tid, from);
  }
}

std::string ShardedScheduler::CheckInvariants() const {
  const auto at = [](const char* what, std::int64_t index) {
    return std::string(what) + " " + std::to_string(index);
  };
  int steal_sources = 0;
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const Shard& shard = ShardAt(cpu);
    const GpsSchedulerBase& inner = *shard.scheduler;
    const int runnable = inner.runnable_count();
    if (Stealable(cpu) != (runnable >= 2)) {
      return at("stealable bit disagrees with the runnable count on shard", cpu);
    }
    if (RunnableShard(cpu) != (runnable >= 1 || !inner.EmptyPickIsNoop())) {
      return at("runnable-shard bit disagrees with the shard on shard", cpu);
    }
    if (shard.steal_source != (runnable >= 2 && inner.RunningOn(0) != kInvalidThread)) {
      return at("steal-source flag disagrees with the shard on shard", cpu);
    }
    if (std::string queue = inner.CheckWeightQueue(); !queue.empty()) {
      return at("weight queue audit failed on shard", cpu) + ": " + queue;
    }
    steal_sources += shard.steal_source ? 1 : 0;
  }
  if (steal_sources != steal_sources_.load(std::memory_order_relaxed)) {
    return "steal-source count disagrees with the shards' flags";
  }

  std::vector<double> weights(shards_.size(), 0.0);
  bool integral = true;
  int filed = 0;
  for (std::size_t slot = 0; slot < entities_.size(); ++slot) {
    const Entity* e = entities_[slot].get();
    const auto tid = static_cast<ThreadId>(slot);
    if (e == nullptr) {
      if (Contains(tid)) {
        return at("no shard files live thread", tid);
      }
      continue;
    }
    ++filed;
    if (e->tid != tid) {
      return at("entity filed under another tid at slot", tid);
    }
    CpuId holder = kInvalidCpu;
    for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
      if (ShardAt(cpu).scheduler->Contains(tid)) {
        if (holder != kInvalidCpu) {
          return at("two shards hold thread", tid);
        }
        holder = cpu;
      }
    }
    if (holder == kInvalidCpu) {
      return at("no shard holds filed thread", tid);
    }
    if (!Contains(tid) || FindEntity(tid).partition != holder ||
        FindEntity(tid).runnable != e->runnable || FindEntity(tid).weight() != e->weight()) {
      return at("outer entity disagrees with its shard's for thread", tid);
    }
    if (e->runnable) {
      weights[static_cast<std::size_t>(holder)] += e->weight();
      integral = integral && e->weight() == std::floor(e->weight());
    }
  }
  int live = 0;
  for (const auto& shard : shards_) {
    live += shard->scheduler->thread_count();
  }
  if (filed != live || filed != thread_count()) {
    return "the shared table files " + std::to_string(filed) + " entities, the shards hold " +
           std::to_string(live) + ", the host " + std::to_string(thread_count());
  }
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const double want = weights[static_cast<std::size_t>(cpu)];
    const double got = RunnableWeightOf(cpu);
    if (integral ? got != want : std::abs(got - want) > 1e-9 * (1.0 + std::abs(want))) {
      return at("runnable weight disagrees with the recomputed sum on shard", cpu) + ": " +
             std::to_string(got) + " vs " + std::to_string(want);
    }
  }
  return {};
}

}  // namespace sfs::sched
