// The descending-weight queue of runnable threads (Section 3.1): a RunList
// (run_list.h) keyed by minus the weight, so its runs of equal weight are
// indexed by weight.
//
// The list is in descending requested weight, as the paper's is, but keeps
// no order inside a run of equal weights: a thread joins its run at the
// run's back.  Weights repeat heavily in practice (integer weights, a handful
// of job classes), so an insert is a search over the distinct weights and an
// append, and a removal from inside a run only unlinks.  A plain sorted
// insert instead scans the list from its heaviest end, O(t) per admission,
// and placing a thread by tid inside its run walks the run.
//
// Who reads the order inside a run, and why none needs it: the readjustment
// pass (Figure 2, readjust.h) caps a prefix of whole runs, and resolves by
// tid the rare run that rounding splits; the migration-victim scan
// (GpsSchedulerBase::PickMigrationCandidate) and FindRunnable break ties by
// tid themselves; the heuristic model's last-k scan (eval::HeuristicSfs)
// resolves the one run that k ends inside.

#ifndef SFS_SCHED_WEIGHT_QUEUE_H_
#define SFS_SCHED_WEIGHT_QUEUE_H_

#include <utility>

#include "src/sched/entity.h"
#include "src/sched/run_list.h"

namespace sfs::sched {

// The order the queue's readers resolve: descending by requested weight,
// then ascending tid (the paper's "ties are broken arbitrarily", made
// reproducible).  The queue's runs ascend by RunKey, minus the weight.
struct ByWeightDesc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {-e.weight(), e.tid}; }
  static double RunKey(const Entity& e) { return -e.weight(); }
};

// A thread joins its run with Append and leaves with Erase(e, -w), w the
// weight it was filed with.
using WeightQueue = RunList<&Entity::by_weight, ByWeightDesc>;

}  // namespace sfs::sched

#endif  // SFS_SCHED_WEIGHT_QUEUE_H_
