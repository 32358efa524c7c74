// Hierarchical Surplus Fair Scheduling — the paper's first future-work item.
//
// Section 5: "GPS-based schedulers such as SFQ can perform hierarchical
// scheduling.  This allows threads to be aggregated into classes and CPU shares
// to be allocated on a per-class basis. ... SFS is a single-level scheduler and
// lacks such features.  The design of hierarchical schedulers for multiprocessor
// environments remains an open research problem."
//
// This extension applies the surplus idea recursively over a class tree:
//
//   * every internal node (class) carries a weight, start/finish tags and a
//     surplus relative to its siblings, exactly like a thread in flat SFS;
//   * dispatch walks the tree from the root, at each level choosing the
//     least-surplus child with an eligible (runnable, not running) descendant,
//     until it reaches a leaf thread;
//   * charging a thread advances its own tags within its class and every
//     ancestor's tags at its level;
//   * the weight readjustment algorithm generalizes per level: a child that is
//     a class with L runnable leaf threads can consume at most min(p, L)
//     processors, so its share of the node's bandwidth is capped at
//     min(p, L)/p (for a leaf thread L = 1, recovering Equation 1).  The caps
//     are applied by weighted water-filling: violators are pinned at their cap
//     and the remainder is redistributed proportionally.
//
// With every thread in the root class this reduces exactly to flat SFS, which
// the test suite verifies.  This is a clarity-first reference implementation:
// per-decision work is linear in the active classes and the threads of the
// chosen class (the flat scheduler's three-queue machinery could be replicated
// per class if needed).

#ifndef SFS_SCHED_HSFS_H_
#define SFS_SCHED_HSFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sched/run_queue.h"
#include "src/sched/scheduler.h"
#include "src/sched/tag_arith.h"

namespace sfs::sched {

// Scheduling-class identifier; the root class always exists.
using ClassId = std::int32_t;
inline constexpr ClassId kRootClass = 0;
inline constexpr ClassId kInvalidClass = -1;

// Key for a class's member queue: ascending start tag with the
// library-wide thread-id tie-break, so the class-level virtual time is the
// front element and iteration order is a deterministic total order.
struct HsfsByStartAsc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {e.start_tag(), e.tid}; }
};

class HierarchicalSfs : public Scheduler {
 public:
  explicit HierarchicalSfs(const SchedConfig& config);
  ~HierarchicalSfs() override;

  std::string_view name() const override { return "H-SFS"; }

  // --- tree construction ------------------------------------------------------

  // Creates a scheduling class under `parent` with relative weight `weight`
  // among its siblings.  Classes may nest arbitrarily deep.
  void CreateClass(ClassId id, ClassId parent, Weight weight);

  // Changes a class's weight on the fly.
  void SetClassWeight(ClassId id, Weight weight);

  // Adds a thread into `cls` (instead of the root class).  `weight` is the
  // thread's share relative to its class siblings.
  void AddThreadToClass(ThreadId tid, Weight weight, ClassId cls);

  // Pre-registers the class a thread will join when it is later admitted via
  // plain AddThread (how the simulator adds tasks).  Unrouted threads join the
  // root class.
  void RouteThread(ThreadId tid, ClassId cls);

  // --- introspection ----------------------------------------------------------

  // Aggregate CPU service received by all threads ever admitted to the subtree
  // rooted at `cls`.
  Tick ClassService(ClassId cls) const;

  // Instantaneous share fraction (of total machine bandwidth) currently granted
  // to the class by the hierarchical readjustment; 0 if no runnable leaves.
  double ClassShare(ClassId cls) const;

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;

 private:
  struct Node {
    ClassId id = kInvalidClass;
    Node* parent = nullptr;
    std::vector<Node*> children;

    Weight weight = 1.0;
    // Share of the whole machine, from the per-level readjustment.
    double share = 0.0;

    double start_tag = 0.0;
    double finish_tag = 0.0;

    int runnable_leaves = 0;  // runnable leaf threads in the subtree
    int eligible_leaves = 0;  // runnable and not currently running
    Tick total_service = 0;   // aggregate leaf service (survives departures)
    double idle_vt = 0.0;     // level virtual time frozen while nothing runnable

    // Runnable threads directly attached to this class, sorted by (start tag,
    // tid) on the backend-selectable run queue — the level virtual time is
    // then the front element.
    RunQueue<Entity, &Entity::by_rq, HsfsByStartAsc> members;
  };

  Node& FindNode(ClassId id);
  const Node& FindNode(ClassId id) const;
  Node& NodeOf(const Entity& e);

  // Minimum start tag over the active participants at node `n`'s level (child
  // classes with runnable leaves and runnable member threads); falls back to the
  // node's idle marker.  `exclude` skips one child class (used while it is being
  // re-activated).
  double LevelVirtualTime(const Node& n, const Node* exclude = nullptr) const;

  // Re-derives every class's machine share: top-down weighted water-filling
  // with per-child capacity caps min(p, runnable_leaves)/p.
  void RecomputeShares();

  // Adjusts runnable/eligible counters on the path to the root.
  void PropagateRunnable(Node& leaf_class, int delta);
  void PropagateEligible(Node& leaf_class, int delta);
  void PropagateService(Node& leaf_class, Tick ran);

  // Called when a class transitions to/from having runnable leaves: applies the
  // SFS arrival/wakeup tag rules at the class level.
  void ActivateClassPath(Node& n);

  TagArith arith_;
  // Ordered: the destructor and any future reporting iterate the class set
  // (the determinism lint forbids unordered iteration in sched/).  The two
  // per-thread maps below are keyed-lookup-only and may stay unordered.
  std::map<ClassId, std::unique_ptr<Node>> nodes_;
  std::unordered_map<ThreadId, ClassId> routes_;  // pre-admission class choice
  std::unordered_map<ThreadId, ClassId> thread_class_;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_HSFS_H_
