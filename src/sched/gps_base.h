// Shared base for GPS-derived schedulers (SFS, SFQ, WFQ).
//
// Maintains the weight-sorted runnable queue from Section 3.1 and invokes the
// weight readjustment algorithm at every point the paper requires: "every time the
// set of runnable threads changes (i.e., after each arrival, departure, blocking
// event or wakeup event), or if the user changes the weight of a thread."
//
// The readjustment can be disabled per SchedConfig::use_readjustment to reproduce
// the paper's with/without comparisons (Figure 4); instantaneous weights then
// simply track the requested weights.

#ifndef SFS_SCHED_GPS_BASE_H_
#define SFS_SCHED_GPS_BASE_H_

#include <cstddef>
#include <string>

#include "src/sched/readjust.h"
#include "src/sched/scheduler.h"
#include "src/sched/tag_arith.h"

namespace sfs::sched {

class GpsSchedulerBase : public Scheduler {
 public:
  ~GpsSchedulerBase() override { weight_queue_.Clear(); }

  // True iff the current runnable weight assignment satisfies Equation 1.
  bool WeightsFeasible() const {
    return IsFeasible(weight_queue_, runnable_weight_sum_, num_cpus());
  }

  // Best thread to migrate away (sched::Sharded's steal and rebalance
  // victim): the runnable, not-running entity with the highest migration
  // score phi * (start_tag - LocalVirtualTime()), the SFS surplus alpha_i
  // generalized to any tagged policy (ties broken toward the lowest tid, so
  // the choice is deterministic).  `max_weight` > 0 restricts candidates to
  // weights strictly below it (the rebalancer's "move only if the imbalance
  // shrinks" constraint).  Returns nullptr if no entity qualifies; otherwise
  // `score` (when non-null) receives the winner's score — the virtual time is
  // evaluated once for the whole scan, not per entity.  Scans the weight
  // queue, which holds exactly the runnable set, so blocked threads cost
  // nothing.
  Entity* PickMigrationCandidate(double max_weight = 0.0, double* score = nullptr);

  // The runnable entity `tid` (running or not) if this scheduler holds it,
  // else nullptr.  Walks the weight queue, never the entity table, so it
  // reads only entities this scheduler owns: safe under this scheduler's
  // lock alone even while the shards sharing its table (sched::Sharded) move
  // `tid` between them.  O(runnable).
  const Entity* FindRunnable(ThreadId tid) const;

  // Audit for tests, O(runnable): the weight queue holds exactly the
  // runnable threads, and its run index matches its runs of equal weight
  // (RunList::CheckIndex).  Returns an empty string, or a description of the
  // first violation.
  std::string CheckWeightQueue() const;

  // Audit for tests, O(runnable), of a policy's own RunList: it holds
  // exactly the runnable threads, its run index matches its runs
  // (RunList::CheckIndex), and the weight queue passes CheckWeightQueue.
  // Returns an empty string, or a description of the first violation.
  template <typename Queue>
  std::string CheckRunQueue(const Queue& queue) const {
    if (queue.size() != static_cast<std::size_t>(runnable_count())) {
      return "the run queue holds " + std::to_string(queue.size()) + " threads, " +
             std::to_string(runnable_count()) + " are runnable";
    }
    for (const Entity* e = queue.front(); e != nullptr; e = queue.next(e)) {
      if (!e->runnable) {
        return "the run queue holds blocked thread " + std::to_string(e->tid);
      }
    }
    if (std::string index = queue.CheckIndex(); !index.empty()) {
      return index;
    }
    return CheckWeightQueue();
  }

  // True iff PickNext with nothing runnable returns nullptr and changes no
  // state a later decision reads (statistics counters may still tick).
  // sched::Sharded keeps a shard whose empty pick would act visible to the
  // driver, so skipping its pick cannot change a schedule.
  virtual bool EmptyPickIsNoop() const { return true; }

 protected:
  explicit GpsSchedulerBase(const SchedConfig& config)
      : Scheduler(config), arith_(config.fixed_point_digits) {}

  // Adds a (newly runnable) entity to the weight queue and readjusts.
  // Returns true iff any instantaneous weight changed.
  bool AdmitWeight(Entity& e) {
    weight_queue_.Append(&e);
    runnable_weight_sum_ += e.weight();
    return MaybeReadjust();
  }

  // Removes a (no longer runnable) entity from the weight queue and readjusts.
  bool RetireWeight(Entity& e) {
    weight_queue_.Erase(&e, ByWeightDesc::RunKey(e));
    runnable_weight_sum_ -= e.weight();
    readjust_state_.Forget(e);
    return MaybeReadjust();
  }

  // Re-sorts after a weight change (entity may be runnable or blocked).
  bool UpdateWeight(Entity& e, Weight old_weight) {
    if (weight_queue_.contains(&e)) {
      runnable_weight_sum_ += e.weight() - old_weight;
      if (e.weight() != old_weight) {
        weight_queue_.Erase(&e, -old_weight);  // the key it was filed with
        weight_queue_.Append(&e);
      }
      // An uncapped thread's instantaneous weight must track the new request
      // (ReadjustQueue only rewrites the phis of threads entering or leaving
      // the cap set); a capped thread's phi is recomputed by the pass below.
      bool phi_changed = false;
      if (!e.capped && e.phi() != e.weight()) {
        e.phi() = e.weight();
        OnPhiChanged(e);
        phi_changed = true;
      }
      const bool readjusted = MaybeReadjust();
      return readjusted || phi_changed;
    }
    // Blocked: phi will be recomputed on wakeup; track the request now.
    e.phi() = e.weight();
    return false;
  }

  // Runs the readjustment algorithm over the runnable set if enabled (without
  // readjustment, phi is pinned to the requested weight at admission and weight
  // changes, so nothing needs recomputing).  Returns true iff any phi changed.
  bool MaybeReadjust() {
    if (!config().use_readjustment) {
      return false;
    }
    const bool changed =
        ReadjustQueue(weight_queue_, runnable_weight_sum_, num_cpus(), readjust_state_);
    if (changed) {
      for (Entity* e : readjust_state_.changed) {
        OnPhiChanged(*e);
      }
      // Flat schedulers serialize every entry point under one mutex, so the
      // lifecycle ring sees a single writer at a time.
      if (trace_) [[unlikely]] {
        trace_->RecordLifecycle(obs::TraceEventKind::kReadjust, trace_->now_hint(),
                                sched::kInvalidThread, runnable_count());
      }
    }
    return changed;
  }

  // Called for each runnable entity whose instantaneous weight was just
  // rewritten (by a readjustment pass or a weight change), before the
  // Admit/Retire/UpdateWeight call that caused it returns.  Policies that
  // index runnable threads by phi re-file them here; the default does nothing.
  virtual void OnPhiChanged(Entity& e) { (void)e; }

  const WeightQueue& weight_queue() const { return weight_queue_; }
  WeightQueue& weight_queue() { return weight_queue_; }
  const TagArith& arith() const { return arith_; }

 private:
  WeightQueue weight_queue_;
  ReadjustState readjust_state_;
  double runnable_weight_sum_ = 0.0;
  TagArith arith_;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_GPS_BASE_H_
