// Start-time Fair Queueing (Goyal et al., OSDI '96) — the paper's main baseline.
//
// SFQ maintains a start tag S_i per thread and always dispatches the runnable
// thread with the minimum start tag; S_i advances by q / phi_i when the thread
// runs for q.  On a uniprocessor this provides strong fairness bounds; on an SMP
// it exhibits the two pathologies the paper demonstrates:
//
//   * infeasible weights starve feasible threads (Example 1 / Figures 1 and 4(a)),
//     which SchedConfig::use_readjustment = true mitigates (Figure 4(b));
//   * "spurt" scheduling mis-allocates under frequent arrivals/departures even
//     with feasible weights (Example 2 / Figure 5(a)) — readjustment cannot help.

#ifndef SFS_SCHED_SFQ_H_
#define SFS_SCHED_SFQ_H_

#include <utility>

#include "src/common/sorted_list.h"
#include "src/sched/gps_base.h"

namespace sfs::sched {

struct SfqByStartAsc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {e.start_tag(), e.tid}; }
};
using SfqQueue = common::SortedList<Entity, &Entity::by_start, SfqByStartAsc>;

class Sfq : public GpsSchedulerBase {
 public:
  explicit Sfq(const SchedConfig& config);
  ~Sfq() override;

  std::string_view name() const override {
    return config().use_readjustment ? "SFQ+readjust" : "SFQ";
  }

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // System virtual time: minimum start tag over runnable threads.
  double VirtualTime() const;
  double StartTag(ThreadId tid) const { return FindEntity(tid).start_tag(); }

  // Migration timeline (sched::Sharded): tags live on the start-tag axis.
  double LocalVirtualTime() const override { return VirtualTime(); }

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;
  void OnAttach(Entity& e) override;

 private:
  SfqQueue queue_;
  double idle_virtual_time_ = 0.0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SFQ_H_
