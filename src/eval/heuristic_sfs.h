// The k-bounded scheduling heuristic of Section 3.2, as an evaluation model.
//
// The paper's kernel keeps the runnable threads in a sorted surplus queue.
// Rather than recompute and re-sort every surplus at each decision, the
// heuristic examines the first k threads of the surplus queue, the first k
// of the start-tag order and the last k of the weight queue (the smallest
// weights, footnote 8), and dispatches the least fresh surplus among them.
// The stored surpluses are recomputed and the queue re-sorted every
// `refresh_period` decisions and at the first decision after a phi changed;
// in between, a thread's stored surplus is rewritten only when it is
// admitted, woken, charged or warped.
//
// sched::Sfs makes the exact decision in O(classes + p) (DESIGN.md §3), which
// is cheaper than this heuristic at every measured size, so the library has a
// single SFS algorithm and the heuristic lives here.  Figure 3 audits its
// accuracy (eval::HeuristicAccuracy), and fig7 and ablation A2 time it.  The
// model reuses Sfs's tags, phi classes and weight queue; its only state of its
// own is the surplus order, the refresh clock and the last k of the weight
// queue, kept between decisions.  It is a flat scheduler
// only: it does not file migrants, so it cannot be a sched::Sharded shard.

#ifndef SFS_EVAL_HEURISTIC_SFS_H_
#define SFS_EVAL_HEURISTIC_SFS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/sfs.h"

namespace sfs::eval {

class HeuristicSfs : public sched::Sfs {
 public:
  // Examines `k` >= 1 threads of each queue per decision and refreshes the
  // surplus order at least every `refresh_period` >= 1 decisions.
  HeuristicSfs(const sched::SchedConfig& config, int k, int refresh_period = 64);

  // An empty pick still advances the refresh clock.
  bool EmptyPickIsNoop() const override { return false; }

  // The heuristic's and the exact algorithm's choice for the next decision,
  // computed without changing any state (no refresh, no dispatch).  Figure 3
  // counts how often the two agree.
  struct HeuristicAudit {
    sched::ThreadId heuristic_pick = sched::kInvalidThread;
    sched::ThreadId exact_pick = sched::kInvalidThread;
    double heuristic_surplus = 0.0;
    double exact_surplus = 0.0;
  };
  HeuristicAudit AuditHeuristic();

  // Sfs::CheckInvariants, plus: the surplus order holds exactly the runnable
  // threads, each once, strictly ascending in (stored surplus, tid); and the
  // kept last-k entries, unless marked stale, are the last k runnable
  // threads in (-weight, tid) order.  O(t log t).
  std::string CheckInvariants() const;

 protected:
  void OnAdmit(sched::Entity& e) override;
  void OnRemove(sched::Entity& e) override;
  void OnBlocked(sched::Entity& e) override;
  void OnWoken(sched::Entity& e) override;
  void OnWeightChanged(sched::Entity& e, sched::Weight old_weight) override;
  sched::Entity* PickNextEntity(sched::CpuId cpu) override;
  void OnCharge(sched::Entity& e, Tick ran_for) override;
  void OnPhiChanged(sched::Entity& e) override;
  void OnWarpChanged(sched::Entity& e) override;

 private:
  // One runnable thread in the surplus order, keyed by the surplus stored at
  // its last update (which goes stale as v advances until the next refresh).
  struct Slot {
    double surplus;
    sched::ThreadId tid;
    sched::Entity* e;
  };
  static bool Before(const Slot& a, const Slot& b) {
    return std::pair(a.surplus, a.tid) < std::pair(b.surplus, b.tid);
  }

  // Files `e` with stored surplus `surplus`; Erase takes it out again.
  void Insert(sched::Entity& e, double surplus);
  void Erase(const sched::Entity& e);
  // Recomputes every stored surplus against `v` and re-sorts by insertion
  // sort: near-linear, since between refreshes surpluses shift by -phi * dv
  // and only threads of different phi change places.
  void Refresh(double v);
  sched::Entity* Pick(double v, sched::CpuId cpu);

  // Visits the first k runnable threads in ascending (start tag, tid) order:
  // a k-way merge of the phi classes' queues.
  template <typename Fn>
  void ForFirstKByStartTag(Fn&& fn);

  // Fills last_k_ with the last k runnable threads in (-weight, tid) order,
  // lightest run first (footnote 8): whole runs, and of the run that k ends
  // inside, its highest tids, in no particular order within a run.
  void GatherLastK();

  const std::size_t k_;
  const int refresh_period_;
  std::vector<Slot> order_;     // ascending (stored surplus, tid)
  std::vector<double> stored_;  // each filed thread's stored surplus, by tid

  // GatherLastK's entries, kept until the weight queue changes: a decision
  // on an unchanged queue then costs O(k) for them, as a walk over a
  // (weight, tid) ordered list would.  The On* overrides that change the
  // queue mark them stale.
  std::vector<sched::Entity*> last_k_;
  bool last_k_stale_ = true;

  bool phi_changed_ = true;  // starts true: the first decision refreshes
  int decisions_since_refresh_ = 0;

  struct MergeCursor {
    std::pair<double, sched::ThreadId> key;  // e's (start tag, tid), read once
    sched::Entity* e;
    PhiClass* cls;
  };
  std::vector<MergeCursor> merge_;  // ForFirstKByStartTag's cursors, reused
};

}  // namespace sfs::eval

#endif  // SFS_EVAL_HEURISTIC_SFS_H_
