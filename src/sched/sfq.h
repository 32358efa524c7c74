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
//
// The queue is a start-tag RunList (run_list.h) filed by tid, so it is in
// (S, tid) order and a wakeup finds its place by binary search over the runs
// of equal start tag.

#ifndef SFS_SCHED_SFQ_H_
#define SFS_SCHED_SFQ_H_

#include <string>

#include "src/sched/gps_base.h"
#include "src/sched/run_list.h"

namespace sfs::sched {

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

  // Audit for tests, O(runnable): CheckRunQueue on the start-tag queue.
  std::string CheckInvariants() const { return CheckRunQueue(queue_); }

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
  RunList<&Entity::by_queue, ByStartTagAsc> queue_;
  double idle_virtual_time_ = 0.0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SFQ_H_
