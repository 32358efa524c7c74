// Weighted Fair Queueing (Parekh & Gallager / Demers et al.) baseline.
//
// WFQ orders threads by *finish* tag: F_i = S_i + Q / phi_i, where Q plays the
// role of the packet length.  CPU quanta — unlike packets — have unknown length at
// dispatch (threads block), so F must be predicted with the nominal quantum and
// corrected afterwards.  This structural mismatch is one of the paper's arguments
// for basing decisions on start tags / surpluses only (Section 2.3: SFS "does not
// require the quantum length to be known a priori").
//
// Like SFQ, WFQ inherits the multiprocessor infeasible-weight pathology;
// use_readjustment grafts the Section 2.1 algorithm onto it.
//
// The queue is a finish-tag RunList (run_list.h) filed by tid, so it is in
// (F, tid) order.  Where a readjustment re-predicts every finish tag, the
// queue is unfiled, re-predicted and filed again, whichever path readjusted:
// admission, wakeup, block, exit or a weight change.
//
// Flat only: no figure runs per-CPU WFQ, so it has no sched::Sharded variant.

#ifndef SFS_SCHED_WFQ_H_
#define SFS_SCHED_WFQ_H_

#include <string>

#include "src/sched/gps_base.h"
#include "src/sched/run_list.h"

namespace sfs::sched {

// WFQ's order: ascending finish tag, then ascending tid.
struct ByFinishAsc {
  static double RunKey(const Entity& e) { return e.finish_tag(); }
};

class Wfq : public GpsSchedulerBase {
 public:
  explicit Wfq(const SchedConfig& config);
  ~Wfq() override;

  std::string_view name() const override {
    return config().use_readjustment ? "WFQ+readjust" : "WFQ";
  }

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  double VirtualTime() const;
  double StartTag(ThreadId tid) const { return FindEntity(tid).start_tag(); }
  double FinishTag(ThreadId tid) const { return FindEntity(tid).finish_tag(); }

  // Audit for tests, O(runnable): CheckRunQueue on the finish-tag queue.
  // Its CheckIndex also holds every queued finish tag to the key it was
  // filed with: a run's members share the key its index entry was opened
  // with, so a tag that moved in place opens a run the index lacks, or
  // breaks the order.
  std::string CheckInvariants() const { return CheckRunQueue(queue_); }

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;

 private:
  // Predicted finish tag assuming a full nominal quantum.
  double PredictFinish(const Entity& e) const;
  // After a readjustment: unfiles every runnable thread, re-predicts its
  // finish tag and files it again.
  void RepredictAll();

  RunList<&Entity::by_queue, ByFinishAsc> queue_;
  double idle_virtual_time_ = 0.0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_WFQ_H_
