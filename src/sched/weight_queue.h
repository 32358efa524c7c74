// The descending-weight queue of runnable threads (Section 3.1), indexed by
// distinct weight.
//
// The list order is the paper's: descending requested weight, ties broken by
// ascending tid, so the readjustment pass (Figure 2), the migration-victim
// scan (GpsSchedulerBase::PickMigrationCandidate), the heuristic model's
// last-k scan (eval::HeuristicSfs) and every other reader walk exactly the
// list a plain sorted insert would build.  What changes is how a thread finds its place.  Weights
// repeat heavily in practice (integer weights, a handful of job classes), so
// besides the list the queue keeps one *bucket* per distinct weight present:
// the weight and the first and last member of its run in the list, in a
// contiguous array sorted by descending weight.  An insert binary-searches
// the buckets and then places the thread by tid inside its run, walking in
// from whichever end of the run has the nearer tid; a new weight opens a
// bucket in front of the next lighter run.  A removal from inside a run is
// O(1): both list neighbours share its weight, so no bucket moves.  Removing
// a run's first or last member binary-searches the buckets to move that end,
// and emptying a bucket costs O(distinct weights) to close it.  A plain sorted
// insert instead scans the list from its heaviest end, O(t) per admission.
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

// The queue's total order: descending by requested weight, then ascending tid
// (the paper's "ties are broken arbitrarily", made reproducible).
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

  // Links `e` at its (-weight, tid) position.
  void Insert(Entity* e);

  // Unlinks `e`, whose weight must still be the one it was inserted with.
  void Remove(Entity* e) { Unlink(e, e->weight()); }

  // Moves `e` after its weight changed from `old_weight` to e->weight().
  void Reposition(Entity* e, Weight old_weight);

  void Clear();

  // Calls `fn(e)` for the last `k` entries, lightest first (the Section 3.2
  // heuristic, eval::HeuristicSfs, examines the smallest weights first,
  // paper footnote 8).
  template <typename Fn>
  void ForLastK(std::size_t k, Fn&& fn) {
    std::size_t visited = 0;
    for (Entity* e = list_.back(); e != nullptr && visited < k; e = list_.prev(e), ++visited) {
      fn(e);
    }
  }

  // Audit for tests, O(t): the list is strictly ascending in (-weight, tid)
  // and the buckets are exactly its runs of equal weight, heaviest first,
  // each with its true first and last member.  Returns an empty string or
  // the first violation.
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

  common::IntrusiveList<Entity, &Entity::by_weight> list_;
  std::vector<Bucket> buckets_;  // descending weight, one per distinct weight
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_WEIGHT_QUEUE_H_
