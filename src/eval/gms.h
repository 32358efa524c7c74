// Generalized Multiprocessor Sharing (Section 2.2) — fluid-flow reference.
//
// GMS is the idealized algorithm SFS approximates: threads are served with
// infinitesimal quanta, p at a time, in proportion to their instantaneous
// (readjusted) weights.  With feasible weights the service *rate* of thread i is
//
//     rate_i = min(1, p * phi_i / sum_j phi_j)      [processors of capacity 1]
//
// and A_i^GMS integrates that rate over time.  This class mirrors the event
// stream a real scheduler sees (arrival/departure/block/wakeup/weight change) and
// integrates exact fluid service between events.  It is used to
//   * compute the paper's surplus definition (Equation 3) exactly in tests, and
//   * bound the deviation |A_i - A_i^GMS| of the discrete schedulers.
//
// The runnable members sit on the library's descending-weight queue
// (sched::WeightQueue) and are readjusted by the schedulers' own pass
// (sched::ReadjustQueue), so GMS and the schedulers share one readjustment
// algorithm.  An event costs O(runnable): walks of the runnable queue refresh
// the rates and integrate service, with no sort.  Only tests and src/eval run
// it.

#ifndef SFS_EVAL_GMS_H_
#define SFS_EVAL_GMS_H_

#include <map>

#include "src/common/time.h"
#include "src/sched/entity.h"
#include "src/sched/readjust.h"
#include "src/sched/types.h"
#include "src/sched/weight_queue.h"

namespace sfs::eval {

class GmsReference {
 public:
  explicit GmsReference(int num_cpus);
  ~GmsReference() { runnable_.Clear(); }

  GmsReference(const GmsReference&) = delete;
  GmsReference& operator=(const GmsReference&) = delete;

  // Event mirror.  `now` must be non-decreasing across calls.
  void AddThread(sched::ThreadId tid, sched::Weight weight, Tick now);
  void RemoveThread(sched::ThreadId tid, Tick now);
  void Block(sched::ThreadId tid, Tick now);
  void Wakeup(sched::ThreadId tid, Tick now);
  void SetWeight(sched::ThreadId tid, sched::Weight weight, Tick now);

  // Integrates fluid service up to `now` with the current rates.  Rates are
  // recomputed lazily: a batch of same-timestamp events (e.g. a mass arrival
  // at t=0) costs one readjustment pass, not one per event.
  void AdvanceTo(Tick now);

  // Cumulative fluid service A_i^GMS in (fractional) ticks.  Valid for departed
  // threads as well.
  double Service(sched::ThreadId tid) const;

  // Current service rate in units of one processor (0..1).
  double Rate(sched::ThreadId tid) const;

  // Instantaneous (readjusted) weight phi_i currently in effect.
  double Phi(sched::ThreadId tid) const;

  int num_cpus() const { return num_cpus_; }

 private:
  // The entity carries tid, weight, phi and the cap flag, and links the
  // member on runnable_ while it is runnable.
  struct Member : sched::Entity {
    double rate = 0.0;
    double service = 0.0;
    bool departed = false;
  };

  Member& Find(sched::ThreadId tid);
  const Member& Find(sched::ThreadId tid) const;

  // Files a member on the runnable queue with phi = w: a thread leaving the
  // runnable set keeps the phi its last pass gave it, and ReadjustQueue
  // rewrites only the phis of threads entering or leaving the cap set.
  void File(Member& m);
  // Takes a runnable member off the queue.
  void Unfile(Member& m);

  // Recomputes phi (via the readjustment algorithm) and rates for the runnable
  // set if an event invalidated them since the last recompute.
  void EnsureRates() const;

  int num_cpus_;
  Tick last_advance_ = 0;
  // Rates/phis are derived state, refreshed lazily from the runnable set.
  mutable bool rates_dirty_ = false;
  // Node-based, so a member's entity never moves while it is linked.
  mutable std::map<sched::ThreadId, Member> members_;
  mutable sched::WeightQueue runnable_;
  mutable sched::ReadjustState readjust_;
};

}  // namespace sfs::eval

#endif  // SFS_EVAL_GMS_H_
