// The descending-weight queue of runnable threads (Section 3.1), indexed by
// distinct weight.
//
// The list is in descending requested weight, as the paper's is, but keeps
// no order inside a run of equal weights: a thread joins its run at the
// run's back.  Weights repeat heavily in practice (integer weights, a handful
// of job classes), so besides the list the queue keeps one *bucket* per
// distinct weight present: the weight and the first and last member of its
// run in the list, in a contiguous array sorted by descending weight.  An
// insert binary-searches the buckets and appends to its run, or opens a
// bucket in front of the next lighter run.  A removal from inside a run is
// O(1): both list neighbours share its weight, so no bucket moves.  Removing
// a run's first or last member binary-searches the buckets to move that end,
// and emptying a bucket costs O(distinct weights) to close it.  A plain
// sorted insert instead scans the list from its heaviest end, O(t) per
// admission, and placing a thread by tid inside its run walks the run.
//
// Who reads the order inside a run, and why none needs it: the readjustment
// pass (Figure 2, readjust.h) caps a prefix of whole runs, and resolves by
// tid the rare run that rounding splits; the migration-victim scan
// (GpsSchedulerBase::PickMigrationCandidate) and FindRunnable break ties by
// tid themselves; the heuristic model's last-k scan (eval::HeuristicSfs)
// goes through ForLastK, which resolves the one run that k ends inside.
//
// The bucket array only grows to the peak number of distinct runnable
// weights and keeps its capacity, so steady state allocates nothing.

#ifndef SFS_SCHED_WEIGHT_QUEUE_H_
#define SFS_SCHED_WEIGHT_QUEUE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/sched/entity.h"

namespace sfs::sched {

// The order the queue's readers resolve: descending by requested weight,
// then ascending tid (the paper's "ties are broken arbitrarily", made
// reproducible).
struct ByWeightDesc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {-e.weight(), e.tid}; }
};

class WeightQueue {
 public:
  std::size_t size() const { return list_.size(); }
  Entity* front() { return list_.front(); }
  const Entity* front() const { return list_.front(); }
  bool contains(const Entity* e) const { return list_.contains(e); }
  Entity* next(Entity* e) { return list_.next(e); }
  const Entity* next(const Entity* e) const { return list_.next(e); }

  // Links `e` at the back of its weight's run.
  void Insert(Entity* e);

  // Unlinks `e`, whose weight must still be the one it was inserted with.
  void Remove(Entity* e) { Unlink(e, e->weight()); }

  // Moves `e` after its weight changed from `old_weight` to e->weight().
  void Reposition(Entity* e, Weight old_weight);

  void Clear();

  // Calls `fn(e)` for the last `k` entries in (-weight, tid) order, lightest
  // run first (the Section 3.2 heuristic, eval::HeuristicSfs, examines the
  // smallest weights first, paper footnote 8): whole runs, and of the run
  // that k ends inside, its highest tids.  The calls within a run come in no
  // particular order.  Finding them gathers the run that k ends inside, so
  // they are kept until the queue or k changes: a call on an unchanged
  // queue costs O(k), as a walk over a (weight, tid) ordered list would.
  template <typename Fn>
  void ForLastK(std::size_t k, Fn&& fn) {
    if (last_k_stale_ || last_k_count_ != k) {
      GatherLastK(k);
    }
    for (Entity* e : last_k_) {
      fn(e);
    }
  }

  // Audit for tests, O(t): the list descends by weight, and the buckets are
  // exactly its runs of equal weight, heaviest first, each with its true
  // first and last member.  Returns an empty string or the first violation.
  std::string CheckIndex() const;

 private:
  struct Bucket {
    Weight weight;
    Entity* first;
    Entity* last;
  };

  // First bucket whose weight is not heavier than `w`.
  std::vector<Bucket>::iterator LowerBound(Weight w);
  void Unlink(Entity* e, Weight filed_weight);

  // Fills last_k_ with what ForLastK(k) visits.
  void GatherLastK(std::size_t k);

  common::IntrusiveList<Entity, &Entity::by_weight> list_;
  std::vector<Bucket> buckets_;  // descending weight, one per distinct weight
  // ForLastK's entries for k = last_k_count_, unless a change since marked
  // them stale.
  std::vector<Entity*> last_k_;
  std::size_t last_k_count_ = 0;
  bool last_k_stale_ = true;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_WEIGHT_QUEUE_H_
