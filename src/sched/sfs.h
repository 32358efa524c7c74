// Surplus Fair Scheduling (Sections 2.3, 3.1, 3.2) — the paper's main contribution.
//
// Each thread carries a start tag S_i and finish tag F_i measured in weighted
// service.  The system virtual time v is the minimum start tag over runnable
// threads.  The *surplus*
//
//     alpha_i = phi_i * (S_i - v)
//
// approximates how far ahead of the idealized GMS allocation the thread has run
// (Equation 4); SFS always dispatches the runnable thread with the least surplus.
// Properties reproduced here:
//
//   * phi_i is the instantaneous weight from the readjustment algorithm, so all
//     decisions are made on feasible weights;
//   * the decision needs only start tags, so quanta may have variable length
//     (threads blocking mid-quantum are charged exactly what they used);
//   * a newly woken thread gets S_i = max(F_i, v) — no credit accumulates while
//     sleeping;
//   * alpha_i >= 0 and at least one runnable thread has alpha_i = 0;
//   * on a uniprocessor SFS reduces exactly to SFQ (least surplus == least start
//     tag), which the test suite verifies.
//
// Engineering of Section 3, and where it departs:
//   * the descending-weight queue of Section 3.1 lives in GpsSchedulerBase and
//     drives the O(p) readjustment; it indexes its runs of equal weight, so
//     an admission finds its place in O(log distinct weights) plus a tid
//     walk inside one run (weight_queue.h);
//   * the exact decision does not keep the paper's sorted surplus queue.
//     Threads with equal phi (and equal latency warp) rank by surplus exactly
//     as they rank by start tag, so runnable threads are filed in *phi
//     classes* — one start-tag-ordered queue per distinct (phi, warp_eff)
//     pair — and the least-surplus thread is the least-surplus head among the
//     classes.  v is the least class head start tag.  Threads of one class
//     with equal start tags share one surplus; each class links the first
//     member of every such run, so a walk visits run heads, never a run's
//     tail.  A packed head table holds, per class, its (phi, warp_eff), its
//     front start tag and its first not-running member.  A decision is one
//     pass over the table for v and one for the least head surplus, which
//     first rescans each class marked stale since the last decision (filed
//     into, unfiled from, charged in, or dispatched from; the rescans skip at
//     most p running members in all), and a list walk only in classes tied
//     at the least surplus: O(classes + p + rounding ties).  A charge
//     re-files one thread within its class, walking the run heads from
//     whichever end lies nearer its new tag, and a readjustment re-files
//     only the threads whose phi changed (O(p) of them); neither a
//     decision, a charge nor an admission walks the runnable set.
//     DESIGN.md §3 gives the monotonicity argument that makes the result
//     identical to a full surplus sort, rounding ties included;
//   * the paper's k-bounded scheduling heuristic (Figure 3) is not a mode of
//     this class: the exact decision above is cheaper at every measured size,
//     so the heuristic is an evaluation model (eval::HeuristicSfs) that reuses
//     the protected decision prologue, phi classes and surplus helpers below;
//   * optional fixed-point tag arithmetic with a 10^n scaling factor;
//   * tag wrap-around handling: all tags are periodically rebased against the
//     minimum start tag.

#ifndef SFS_SCHED_SFS_H_
#define SFS_SCHED_SFS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/sched/gps_base.h"

namespace sfs::sched {

struct ByStartTagAsc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {e.start_tag(), e.tid}; }
};

class Sfs : public GpsSchedulerBase {
 public:
  explicit Sfs(const SchedConfig& config);
  ~Sfs() override;

  std::string_view name() const override { return "SFS"; }

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // --- latency extension (Section 5 future work) -------------------------------
  // Sets a latency warp for a thread, in ticks of weighted service.  Dispatch
  // decisions use the *effective* surplus alpha_i - phi_i * warp_i, so a warped
  // thread is scheduled as if it were `warp` ahead of its actual tags — lower
  // dispatch latency — while its tags (and therefore its long-run share) are
  // unchanged.  This is the SFS analogue of BVT's warp, which the paper names as
  // the model for extending GMS-based schedulers with latency requirements.
  // warp = 0 disables.
  void SetWarp(ThreadId tid, double warp);

  // Current system virtual time v (minimum start tag over runnable threads, or the
  // last value before the system went idle).
  double VirtualTime() const;

  // Migration timeline (sched::Sharded): tags live on the start-tag axis.
  double LocalVirtualTime() const override { return VirtualTime(); }

  // An empty pick still rebases once the idle virtual time passes
  // tag_rebase_threshold; otherwise it only counts a decision.
  bool EmptyPickIsNoop() const override {
    return idle_virtual_time_ <= config().tag_rebase_threshold;
  }

  // Fresh surplus of a runnable thread at the current virtual time.
  double Surplus(ThreadId tid) const;

  double StartTag(ThreadId tid) const { return FindEntity(tid).start_tag(); }
  double FinishTag(ThreadId tid) const { return FindEntity(tid).finish_tag(); }

  // The thread the next PickNext(cpu) would dispatch, without dispatching it
  // (kInvalidThread if none).  Audits and tests compare it against a
  // brute-force scan.
  ThreadId PeekExactPick(CpuId cpu);

  // Single-threaded consistency audit for tests: every phi class is non-empty
  // and ascending in (S, tid), and each filed thread is runnable and carries
  // its class's (phi, warp_eff); every member that is not a run head shares
  // its predecessor's start tag, and the run list links exactly the heads, in
  // queue order; the head table has one entry per class, each front tag is
  // its class's front start tag, and each entry not marked stale holds the
  // idle candidate, tid, tag and run head a fresh scan finds; exactly the
  // runnable threads are filed; the weight queue
  // holds exactly the runnable set, and its bucket index matches its runs of
  // equal weight (WeightQueue::CheckIndex); an uncapped thread's phi is its
  // requested weight; with readjustment on and more than p threads runnable,
  // every phi is at most sum(phi) / p, up to rounding.  Returns an empty
  // string, or a description of the first violation.  O(t); the scheduler
  // never calls it.
  std::string CheckInvariants() const;

  // Counters for the overhead benchmarks.
  std::int64_t decisions() const { return decisions_; }
  // Decisions that found v advanced or some phi changed since the previous
  // decision — the decisions at which Section 3.2's exact algorithm
  // recomputes and resorts every surplus, and at which this one does no
  // surplus work at all.
  std::int64_t full_refreshes() const { return full_refreshes_; }
  std::int64_t rebases() const { return rebases_; }
  // Threads re-filed into another phi class because readjustment, a weight
  // change or a warp change rewrote their (phi, warp_eff) pair.
  std::int64_t refresh_repositions() const { return refresh_repositions_; }

  // Run heads stepped over by the walks that file a thread in its class
  // (admission, wakeup, re-file, and the re-file after every charge).
  std::int64_t relink_steps() const { return relink_steps_; }

  // Phi classes currently holding runnable threads; never more than the
  // runnable count (an emptied class is recycled at once).
  std::size_t phi_classes() const { return heads_.size(); }

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;
  void OnAttach(Entity& e) override;
  void OnPhiChanged(Entity& e) override;

  // Called by SetWarp once `e`'s new warp is in place (and, if runnable, `e`
  // is re-filed).  The default does nothing.
  virtual void OnWarpChanged(Entity& e) { (void)e; }

  // The runnable threads sharing one (phi, warp_eff) pair, in ascending
  // (start tag, tid) order.  Surplus phi * (S - v - warp_eff) is
  // non-decreasing along that order (DESIGN.md §3), and threads with equal
  // start tags have bit-identical surpluses.  `runs` links the first member
  // of each such run of equal start tags, in queue order, so a walk can step
  // from one distinct start tag to the next without visiting the members
  // between; a run's members follow its head in ascending tid order.  The
  // class's (phi, warp_eff) pair lives in its head-table entry.
  struct PhiClass {
    std::int32_t slot = 0;     // index in classes_ (Entity::phi_class)
    std::size_t head_pos = 0;  // index of its entry in heads_
    common::IntrusiveList<Entity, &Entity::by_start> queue;
    common::IntrusiveList<Entity, &Entity::by_run> runs;

    // The member after `e` in e's run, or nullptr at the run's end.
    Entity* NextInRun(Entity* e) {
      Entity* n = queue.next(e);
      return n != nullptr && !n->by_run.linked() ? n : nullptr;
    }
    // The first not-running member of the run headed by `head`, or nullptr.
    // Every running member is skipped at most once per walk: at most p.
    Entity* FirstIdle(Entity* head) {
      Entity* e = head;
      while (e != nullptr && e->running) {
        e = NextInRun(e);
      }
      return e;
    }
  };

  // Opens a dispatch decision: reads v, rebases the tags when v passed
  // tag_rebase_threshold (re-reading v), and counts the decision (decisions(),
  // full_refreshes()).  Returns the virtual time to decide against.
  double BeginDecision();

  // Calls fn(cls) for each non-empty phi class, in no particular order.
  template <typename Fn>
  void ForEachClass(Fn&& fn) {
    for (ClassHead& h : heads_) {
      fn(*h.cls);
    }
  }

  // Effective surplus used for dispatch: the paper's alpha_i = phi_i*(S_i - v),
  // minus the optional latency warp (warp_eff, 0 when unwarped).
  static double FreshSurplus(const Entity& e, double v) {
    return e.phi() * (e.start_tag() - v - e.warp_eff());
  }

  // The not-running runnable thread with the least (fresh surplus, tid), or
  // nullptr; `surplus` receives its surplus.  Refreshes the stale head
  // entries while it takes the least head surplus in one pass over the head
  // table; only classes whose head surplus equals it walk their lists, for
  // rounding ties.
  Entity* LeastSurplus(double v, double* surplus);

  // Returns `e`, the thread the decision dispatches (or nullptr), after
  // marking its class's head entry stale: once running, e is no longer its
  // class's idle candidate.  Every PickNextEntity returns through it.
  Entity* Dispatching(Entity* e);

 private:
  // One entry per non-empty class, at the class's head_pos: what a decision
  // reads of the class, packed so that v and the least head surplus are
  // passes over contiguous memory.  `front_tag` is always current (Link,
  // Unlink and MaybeRebase keep it), so VirtualTime() is a const read; the
  // idle candidate is current unless the entry is `stale`, and LeastSurplus
  // refreshes a stale entry before it reads it.
  struct ClassHead {
    double front_tag = 0.0;  // queue.front()'s start tag
    Weight phi = 0.0;
    double warp_eff = 0.0;
    double idle_tag = 0.0;       // idle's start tag; +inf when every member runs
    Entity* idle = nullptr;      // the class's first not-running member
    Entity* idle_run = nullptr;  // head of idle's run
    PhiClass* cls = nullptr;
    ThreadId idle_tid = kInvalidThread;
    bool stale = true;  // the class changed since its idle candidate was found
  };

  // The non-empty class holding (phi, warp_eff), or nullptr.
  PhiClass* FindClass(Weight phi, double warp_eff);
  // Files a runnable entity into `cls`, the class of its current (phi,
  // warp_eff) — or, if nullptr, into a newly opened (recycled) one.  Unfile
  // takes it out and recycles a class it leaves empty.
  void File(Entity& e, PhiClass* cls);
  void Unfile(Entity& e);
  // Links `e` into cls's queue at its (S, tid) position, and into the run
  // list when it opens or heads a run: walks the run heads, from whichever
  // end of the class lies nearer e's start tag, to the run of that tag, then
  // places e in that run by tid from the run's tail.  Unlink takes e out and
  // hands a run's head role to its next member; it reads no keys of e, so it
  // may follow a tag update.  Both mark the class's entry stale and keep its
  // front tag.
  void Link(PhiClass& cls, Entity& e);
  void Unlink(PhiClass& cls, Entity& e);
  // Moves a filed entity whose (phi, warp_eff) changed to its new class.
  void Refile(Entity& e);
  // Finds the idle candidate of h's class afresh (CheckInvariants runs it on
  // a copy).
  static void RefreshHead(ClassHead& h);

  // Applies Section 3.2's wrap-around handling when v crosses the rebase
  // threshold: shifts every tag (runnable and blocked) down by the minimum start
  // tag.  Relative order and surpluses are invariant under the shift.  Returns
  // true iff it rebased.
  bool MaybeRebase(double v);

  Entity* ExactPick(CpuId cpu, double v);

  // Class slots (a deque: stable addresses, neighbouring classes share
  // lines); a slot whose class emptied is parked on free_classes_ and reused,
  // so the table never outgrows the peak runnable count and steady state
  // allocates nothing.
  std::deque<PhiClass> classes_;
  std::vector<PhiClass*> free_classes_;
  // One entry per non-empty class.  File() finds a thread's class by
  // scanning it: there are few distinct (phi, warp_eff) pairs in practice,
  // and a decision reads every entry anyway.
  std::vector<ClassHead> heads_;
  std::size_t filed_ = 0;  // runnable threads across all classes

  // Virtual time bookkeeping.  `idle_virtual_time_` implements "the virtual time
  // ... is set to the finish tag of the thread that ran last" when no thread is
  // runnable.  `need_refresh_` starts true so `last_refresh_v_` is only ever
  // compared after a decision stored a real virtual time; MaybeRebase shifts it
  // together with the tags so the comparison stays in sync across rebases.
  double idle_virtual_time_ = 0.0;
  double last_refresh_v_ = 0.0;
  bool need_refresh_ = true;

  std::int64_t decisions_ = 0;
  std::int64_t full_refreshes_ = 0;
  std::int64_t rebases_ = 0;
  std::int64_t refresh_repositions_ = 0;
  std::int64_t relink_steps_ = 0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SFS_H_
