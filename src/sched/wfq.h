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
// Flat only: no figure runs per-CPU WFQ, so it has no sched::Sharded variant.

#ifndef SFS_SCHED_WFQ_H_
#define SFS_SCHED_WFQ_H_

#include <utility>

#include "src/common/sorted_list.h"
#include "src/sched/gps_base.h"

namespace sfs::sched {

struct ByFinishAsc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {e.finish_tag(), e.tid}; }
};
using FinishQueue = common::SortedList<Entity, &Entity::by_rq, ByFinishAsc>;

class Wfq : public GpsSchedulerBase {
 public:
  explicit Wfq(const SchedConfig& config);
  ~Wfq() override;

  std::string_view name() const override {
    return config().use_readjustment ? "WFQ+readjust" : "WFQ";
  }

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  double VirtualTime() const;
  double FinishTag(ThreadId tid) const { return FindEntity(tid).finish_tag(); }

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

  FinishQueue queue_;
  double idle_virtual_time_ = 0.0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_WFQ_H_
