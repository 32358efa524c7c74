// The optimal weight readjustment algorithm (Section 2.1, Figure 2).
//
// A weight assignment is *feasible* iff no thread requests more than the bandwidth
// of one processor:  w_i / sum_j w_j <= 1/p  (Equation 1).  The readjustment
// algorithm maps an infeasible assignment to the closest feasible one:
//
//   * threads that satisfy the constraint keep their weight unchanged;
//   * each violating thread gets the smallest weight that caps its share at exactly
//     1/p, found by recursing on the remaining threads and remaining processors.
//
// All violating threads end up with the *same* instantaneous weight
// T / (p - k), where k is the number of violators and T the weight sum of the
// non-violators — each then holds share exactly 1/p.  At most p-1 threads can
// violate the constraint (shares sum to 1), so the scan is O(p) given the
// weight-sorted queue the scheduler already maintains (Section 3.1).
//
// Special case: when at most p threads are runnable (t <= p), every thread can be
// given a full processor, so all instantaneous weights are set equal (share capped
// at 1/p each).  This is what makes a 1:10 assignment on two processors behave as
// 1:1 (Figure 4(b), interval [0, 15s)).
//
// One implementation serves every caller: `ReadjustQueue`, iterative and
// early-exiting, operating in place on the weight-sorted entity queue that the
// schedulers and the GMS fluid reference (eval::GmsReference) each keep.  That
// queue (`WeightQueue`, weight_queue.h) keeps descending weight order but no
// order inside a run of equal weights.  The capped prefix is whole runs unless
// rounding ends it inside one; the pass then caps that run's lowest tids, so
// it caps what a (weight, tid) order would.  All capped threads receive one
// value, T / (p - k); the verbatim Figure 2 recursion, which assigns each cap
// bottom-up and so can differ from it in the final ulp, is the parity oracle
// in tests (tests/sched/figure2_reference.h).

#ifndef SFS_SCHED_READJUST_H_
#define SFS_SCHED_READJUST_H_

#include <vector>

#include "src/sched/entity.h"
#include "src/sched/weight_queue.h"

namespace sfs::sched {

// Persistent bookkeeping that makes each readjustment pass O(p): the set of
// currently capped entities (at most p), so former caps can be restored without
// scanning the whole queue.  Owned by the scheduler; `capped` must list exactly
// the runnable entities whose Entity::capped flag is set.
struct ReadjustState {
  std::vector<Entity*> capped;
  std::vector<Entity*> scratch;  // reused buffer for the previous cap set
  std::vector<Entity*> split_run;  // reused buffer for a run the cap prefix ends inside
  // Entities whose phi the last pass rewrote, each listed once: a subset of
  // the previous and the new cap set, so O(p) of them.  Their order follows
  // the weight queue, whose runs of equal weight keep append order, not tid
  // order.  The schedulers re-file them in this order (OnPhiChanged), and
  // no decision depends on it: SFS finds a class by its (phi, warp_eff)
  // pair, which no two classes share; every reader of its classes breaks
  // ties by (surplus, tid) or merges by (start tag, tid), total orders over
  // distinct tids; so only which class slot and head-table position a
  // class takes can vary, and nothing reads those as an order.
  std::vector<Entity*> changed;

  // Forgets an entity leaving the runnable set (block/departure).
  void Forget(Entity& e);
};

// Production form: recomputes Entity::phi for the threads on `queue` (the
// runnable set, descending by weight).  `total_weight` must equal the sum of the
// requested weights of the queued threads (the caller maintains it incrementally).
// Returns true iff any phi changed; `state.changed` then lists the entities
// whose phi did.  Examines O(p) queue entries: the candidate prefix plus the
// previous cap set.
bool ReadjustQueue(WeightQueue& queue, double total_weight, int num_cpus,
                   ReadjustState& state);

// True iff the assignment on `queue` is feasible as-is (Equation 1 holds for the
// largest weight, which implies it for all others).
bool IsFeasible(const WeightQueue& queue, double total_weight, int num_cpus);

}  // namespace sfs::sched

#endif  // SFS_SCHED_READJUST_H_
