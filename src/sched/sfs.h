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
//     drives the O(p) readjustment.  It and each phi class below are one
//     structure, a RunList (run_list.h): an intrusive list whose runs of
//     equal key are indexed in a sorted array of (key, first member).  An
//     admission finds its place in O(log distinct weights) and appends to
//     its run (weight_queue.h);
//   * the exact decision does not keep the paper's sorted surplus queue.
//     Threads with equal phi (and equal latency warp) rank by surplus exactly
//     as they rank by start tag, so runnable threads are filed in *phi
//     classes* — one start-tag-ordered queue per distinct (phi, warp_eff)
//     pair — and the least-surplus thread is the least-surplus head among the
//     classes.  v is the least class head start tag, kept current as threads
//     are filed and unfiled.  Threads of one class with equal start tags
//     share one surplus; each class's run list indexes its runs of equal
//     start tags, so filing is Section 3.2's binary search, by tag, inside
//     one class, unfiling a member that does not head its run searches
//     nothing, and a walk visits run heads, never a run's tail, reading no
//     entity to step.  A head table holds, per class, its (phi, warp_eff),
//     its front start tag and its first not-running member (its idle
//     candidate), which filing keeps current; what a decision reads of it
//     is packed 32 bytes to a class.  A decision first rescans each class
//     marked stale since the last decision (its candidate was unfiled, or a
//     rebase or a decision that dispatched another member intervened; a
//     rescan skips at most p running members), then makes one pass over the
//     packed keys for the least head surplus and the first class at it.
//     Only an exact tie sends it back over the classes from that one, and
//     the run index is walked only in classes at the least surplus:
//     O(classes + p + rounding ties).  A charge
//     re-files one thread within its class in O(log runs) probes (plus the
//     index's shift), and a readjustment re-files only the threads whose phi
//     changed (O(p) of them); neither a decision, a charge nor an admission
//     walks the runnable set.  DESIGN.md §3 gives the monotonicity argument
//     that makes the result identical to a full surplus sort, rounding ties
//     included;
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
#include <limits>
#include <string>
#include <vector>

#include "src/sched/gps_base.h"
#include "src/sched/run_list.h"

namespace sfs::sched {

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
  // last value before the system went idle).  Filing keeps it current, or
  // marks it for one pass over the head table when the last thread at v
  // leaves.
  double VirtualTime() const {
    if (filed_ == 0) {
      return idle_virtual_time_;
    }
    if (v_stale_) {
      RecomputeVirtualTime();
    }
    return v_;
  }

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
  // and ascending in (S, tid), its run index matches its runs
  // (RunList::CheckIndex), and each filed thread is runnable and carries its
  // class's (phi, warp_eff); the head table has one entry per class, each
  // front tag is its class's front start tag, and each entry not marked
  // stale holds the idle candidate, tid, tag and run a fresh scan finds; a
  // class is marked exactly when it is on the stale list, once; the cached
  // v is the least front tag (at most it while marked stale); exactly
  // the runnable threads are filed; the weight queue passes
  // GpsSchedulerBase::CheckWeightQueue; an uncapped thread's phi is its
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

  // Run-index tags probed by the searches that file a thread in its
  // class and take it out again (admission, wakeup, block, re-file, and
  // both halves of the re-file after every charge).  Taking out a thread
  // that does not head its run probes none.
  std::int64_t filing_probes() const { return filing_probes_; }

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

  using PhiQueue = RunList<&Entity::by_queue, ByStartTagAsc>;

  // The runnable threads sharing one (phi, warp_eff) pair, in ascending
  // (start tag, tid) order: a RunList (run_list.h) keyed by start tag, its
  // members filed by tid inside their run.  Surplus phi * (S - v -
  // warp_eff) is non-decreasing along that order (DESIGN.md §3), and
  // threads with equal start tags have bit-identical surpluses, so a walk
  // over the run index steps from one distinct surplus to the next without
  // visiting the members between.  The class's (phi, warp_eff) pair lives
  // in its head-table entry.  Two cache lines, the second holding the run
  // index's inline slots (and, in its padding, the stale mark), aligned to
  // 128 bytes so that the hardware's adjacent-line prefetch brings them in
  // together.
  struct alignas(128) PhiClass {
    std::int32_t slot = 0;       // index in classes_ (Entity::phi_class)
    std::uint32_t head_pos = 0;  // index of its entry in heads_
    PhiQueue queue;
    // Its idle candidate must be found afresh; the class is on stale_.
    bool stale = false;

    // The first not-running member of run `pos` at or after `from` (a member
    // of that run, or its end), or nullptr.  Every running member is skipped
    // at most once per walk: at most p.
    Entity* FirstIdle(std::size_t pos, Entity* from) {
      for (Entity* e = from; e != queue.RunEnd(pos); e = queue.next(e)) {
        if (!e->running) {
          return e;
        }
      }
      return nullptr;
    }
  };
  static_assert(sizeof(PhiClass) == 128, "a phi class must stay two cache lines");

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
  // nullptr; `surplus` receives its surplus.  Refreshes the classes marked
  // stale, then takes the least head surplus and the first entry at it in
  // one pass over the packed keys.  Later entries are revisited only when
  // one tied that surplus exactly, and only classes at it walk their run
  // index, for rounding ties.
  Entity* LeastSurplus(double v, double* surplus);

  // Returns `e`, the thread the decision dispatches (or nullptr), after
  // moving its class's idle candidate past it (or, when e was not the
  // candidate, marking the entry stale): once running, e is no longer its
  // class's candidate.  Every PickNextEntity returns through it.
  Entity* Dispatching(Entity* e);

 private:
  // One entry per non-empty class, at the class's head_pos, in two
  // parallel arrays swap-removed together: what a decision's pass reads of
  // the class, packed two to a cache line, and the rest.  `front_tag` is
  // always current (Link, Unlink and MaybeRebase keep it); the idle
  // candidate is current unless the class is marked stale, and
  // LeastSurplus refreshes the marked classes before its pass.
  struct HeadKey {
    Weight phi = 0.0;
    double warp_eff = 0.0;
    double idle_tag = 0.0;   // idle's start tag; +inf when every member runs
    double front_tag = 0.0;  // queue.front()'s start tag
  };
  static_assert(sizeof(HeadKey) == 32, "two head keys per cache line");
  struct ClassHead {
    Entity* idle = nullptr;  // the class's first not-running member
    PhiClass* cls = nullptr;
    ThreadId idle_tid = kInvalidThread;
    std::uint32_t idle_pos = 0;  // index of idle's run in cls->runs
  };

  // The non-empty class holding (phi, warp_eff), or nullptr.
  PhiClass* FindClass(Weight phi, double warp_eff);
  // Files a runnable entity into `cls`, the class of its current (phi,
  // warp_eff) — or, if nullptr, into a newly opened (recycled) one.  Unfile
  // takes it out and recycles a class it leaves empty.
  void File(Entity& e, PhiClass* cls);
  void Unfile(Entity& e);
  // Links `e` into cls's queue at its (S, tid) position, counting the run
  // tags searched in filing_probes_.  Unlink takes e out by the start tag
  // it was filed with (so a charge unlinks before it moves the tags).  Both
  // keep the class's front tag, its idle candidate (Unlink marks the entry
  // stale when e was the candidate) and v_ (Unlink marks it stale when e
  // was the last thread at v).
  void Link(PhiClass& cls, Entity& e);
  void Unlink(PhiClass& cls, Entity& e);
  // Sets v_ to the least front tag, one pass over the head table.
  void RecomputeVirtualTime() const;
  // Moves a filed entity whose (phi, warp_eff) changed to its new class.
  void Refile(Entity& e);
  // Marks cls's idle candidate to be found afresh by the next decision.
  void MarkStale(PhiClass& cls);
  // Finds the idle candidate of the head entry (key, h) afresh
  // (CheckInvariants runs it on a copy).
  static void RefreshHead(HeadKey& key, ClassHead& h);
  // Sets the idle candidate of (key, h) to the first not-running member of
  // its class at or after `from`, a member of run `pos` or that run's end.
  static void FindIdle(HeadKey& key, ClassHead& h, std::size_t pos, Entity* from);

  // Applies Section 3.2's wrap-around handling when v crosses the rebase
  // threshold: shifts every tag (runnable and blocked) down by the minimum start
  // tag.  Relative order and surpluses are invariant under the shift.  Returns
  // true iff it rebased.
  bool MaybeRebase(double v);
  // Makes runs pos - 1 and pos of `cls`, whose tags the rebase rounded to
  // one value (only a tag above twice the shift can round), one run, its
  // members in tid order.  Run pos must still carry its tag from before
  // the shift.
  void MergeRuns(PhiClass& cls, std::size_t pos);

  Entity* ExactPick(CpuId cpu, double v);

  // Class slots (a deque: stable addresses, allocated a block of slots at
  // a time); a slot whose class emptied is parked on free_classes_ and reused,
  // so the table never outgrows the peak runnable count and steady state
  // allocates nothing.
  std::deque<PhiClass> classes_;
  std::vector<PhiClass*> free_classes_;
  // The head table, one entry per non-empty class in each.  File() finds a
  // thread's class by scanning keys_: there are few distinct (phi,
  // warp_eff) pairs in practice, and a decision reads every key anyway.
  std::vector<HeadKey> keys_;
  std::vector<ClassHead> heads_;
  // The classes marked stale since the last decision, each once (its
  // `stale` bit), so the list never outgrows classes_; a class emptied
  // meanwhile is skipped.
  std::vector<PhiClass*> stale_;
  std::size_t filed_ = 0;  // runnable threads across all classes
  // The least front tag in heads_ (v while any thread is runnable; +inf when
  // nothing is filed), unless `v_stale_`: then only a lower bound, and the
  // next VirtualTime() recomputes it.  Unlink marks it when the last thread
  // at v leaves (readjustment re-files capped threads in bursts, and one
  // pass after the burst serves them all); Link only lowers it.
  mutable double v_ = std::numeric_limits<double>::infinity();
  mutable bool v_stale_ = false;

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
  std::int64_t filing_probes_ = 0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SFS_H_
