// Timing decorators for the traced run.  Each wraps a stock repository class
// from outside and times the calls a driver makes into it; none changes a
// decision, so traced and untraced runs must produce identical schedules
// (the benchmark checks their fingerprints).
//
//   * TimedSfs — sched::Sfs with every entry point the drivers reach through
//     Scheduler's public methods timed: PickNextEntity, OnCharge, OnWoken,
//     OnBlocked, OnAdmit, OnRemove, OnWeightChanged, SuggestPreemption.  As a
//     shard of TimedSharded it books the kShard* ops (the policy alone).
//   * TimedSharded — sched::ShardedScheduler over TimedSfs shards; its own
//     timings include steal, rebalance and migration, and its epoch hook
//     stamps each parallel-engine barrier completion.
//   * TimedBehavior — a sim::Behavior decorator timing every callback.

#ifndef PERFBENCH_SRC_TIMED_LAYERS_H_
#define PERFBENCH_SRC_TIMED_LAYERS_H_

#include <memory>
#include <vector>

#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sim/task.h"
#include "src/timing.h"

namespace sfsperf {

class TimedSfs : public sfs::sched::Sfs {
 public:
  TimedSfs(const sfs::sched::SchedConfig& config, bool shard);

  sfs::sched::CpuId SuggestPreemption(sfs::sched::ThreadId woken,
                                      const std::vector<sfs::Tick>& elapsed) override;

 protected:
  void OnAdmit(sfs::sched::Entity& e) override;
  void OnRemove(sfs::sched::Entity& e) override;
  void OnBlocked(sfs::sched::Entity& e) override;
  void OnWoken(sfs::sched::Entity& e) override;
  void OnWeightChanged(sfs::sched::Entity& e, sfs::sched::Weight old_weight) override;
  sfs::sched::Entity* PickNextEntity(sfs::sched::CpuId cpu) override;
  void OnCharge(sfs::sched::Entity& e, sfs::Tick ran_for) override;

 private:
  Op Level(Op op) const { return shard_ ? ShardTwin(op) : op; }

  bool shard_;
};

class TimedSharded : public sfs::sched::ShardedScheduler {
 public:
  explicit TimedSharded(const sfs::sched::SchedConfig& config);

  sfs::sched::CpuId SuggestPreemption(sfs::sched::ThreadId woken,
                                      const std::vector<sfs::Tick>& elapsed) override;
  void OnEpochBoundary(sfs::Tick now) override;

 protected:
  void OnAdmit(sfs::sched::Entity& e) override;
  void OnRemove(sfs::sched::Entity& e) override;
  void OnBlocked(sfs::sched::Entity& e) override;
  void OnWoken(sfs::sched::Entity& e) override;
  void OnWeightChanged(sfs::sched::Entity& e, sfs::sched::Weight old_weight) override;
  sfs::sched::Entity* PickNextEntity(sfs::sched::CpuId cpu) override;
  void OnCharge(sfs::sched::Entity& e, sfs::Tick ran_for) override;
};

class TimedBehavior : public sfs::sim::Behavior {
 public:
  explicit TimedBehavior(std::unique_ptr<sfs::sim::Behavior> inner);

  sfs::sim::Action Next(sfs::Tick now) override;
  void OnWake(sfs::Tick now) override;
  void OnDispatch(sfs::Tick now) override;
  void OnPreempt(sfs::Tick now) override;

 private:
  std::unique_ptr<sfs::sim::Behavior> inner_;
};

}  // namespace sfsperf

#endif  // PERFBENCH_SRC_TIMED_LAYERS_H_
