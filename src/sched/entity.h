// Per-thread scheduling state ("task struct" fields).
//
// One Entity exists per thread known to a scheduler.  It carries the union of the
// state used by the schedulers in this library; each scheduler uses the subset it
// needs.  All queue membership is intrusive (a runnable SFS thread sits on the
// weight queue and in its phi class, where Section 3.1 kept three sorted queues),
// so entities are never copied or moved while linked.
//
// Hot/cold split: the fields read on every Charge/Pick — weight, phi, the
// virtual-time tags, the latency warp and the SFS phi-class slot — are packed into
// EntityHotRow, exactly one cache line placed first in the Entity, so the
// entity's first line IS its scheduling state and a random touch (wakeup,
// charge, queue-scan key read) never fans out across the struct.  The cold
// identity/bookkeeping fields follow, and the hot fields are exposed through
// accessors of the same names.
//
// Two externalized layouts were measured before landing on this one, on the
// wakeup-dominated 10k-thread engine-throughput cells (mostly-blocked
// interactive tasks, the worst case for random entity access):
//   * six parallel arrays indexed by live_index (pure SoA): up to six
//     scattered lines per entity touch, ~25% end-to-end regression;
//   * one dense array of cache-line rows indexed by live_index: one extra
//     *independent* line per touch — the row region never rides the adjacent-
//     line prefetch of the entity's own lines — ~15% regression.
// Keeping the row inside the entity costs a streaming pass its unit stride,
// but no scheduling decision streams over the entities (the exact SFS pick
// reads just the heads of its phi classes; only audits, tag rebases and the
// evaluation-only heuristic model walk them all), while every hot path pays
// the random-touch cost, so the inline row wins.  The SFS latency
// warp lives in the row as warp_eff, 0 for an unwarped thread, so the surplus
// formula subtracts it unconditionally with no per-entity branch.

#ifndef SFS_SCHED_ENTITY_H_
#define SFS_SCHED_ENTITY_H_

#include <cstdint>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/common/time.h"
#include "src/sched/types.h"

namespace sfs::sched {

// The per-entity hot scheduling state: exactly one cache line, embedded first
// in the Entity.
struct alignas(64) EntityHotRow {
  Weight weight = 1.0;      // requested weight w_i
  Weight phi = 1.0;         // instantaneous weight phi_i (readjusted)
  double start_tag = 0.0;   // S_i
  double finish_tag = 0.0;  // F_i
  double warp_eff = 0.0;    // SFS latency warp (Sfs::SetWarp); 0 = none
  // SFS phi class holding this runnable entity (Sfs::PhiClass slot), or -1.
  std::int32_t phi_class = -1;
  // 20 bytes of the line left for the next hot fields.
};
static_assert(sizeof(EntityHotRow) == 64, "row must stay exactly one cache line");

struct Entity {
  // First member: the entity's first cache line is its hot scheduling state.
  EntityHotRow row_;

  ThreadId tid = kInvalidThread;
  std::int32_t live_index = -1;

  // --- hot-field accessors (same names as the former plain fields) -----------

  EntityHotRow& row() { return row_; }
  const EntityHotRow& row() const { return row_; }

  // Requested weight w_i (set by the user, Section 2).
  Weight& weight() { return row().weight; }
  Weight weight() const { return row().weight; }

  // Instantaneous weight phi_i produced by the readjustment algorithm (Section
  // 2.1).  Equal to `weight` whenever the assignment is feasible.
  Weight& phi() { return row().phi; }
  Weight phi() const { return row().phi; }

  // SFS / SFQ / WFQ virtual-time tags (Section 2.3).
  double& start_tag() { return row().start_tag; }
  double start_tag() const { return row().start_tag; }
  double& finish_tag() { return row().finish_tag; }
  double finish_tag() const { return row().finish_tag; }

  // Slot of the Sfs phi class this entity is filed in while runnable; -1
  // while blocked, detached or owned by another policy.
  std::int32_t& phi_class() { return row().phi_class; }
  std::int32_t phi_class() const { return row().phi_class; }

  // SFS latency warp, in ticks of weighted service; 0 when unwarped.  Kept
  // hot because SFS surpluses and the phi-class key subtract it.
  double warp_eff() const { return row().warp_eff; }

  // Sets the SFS latency warp (Sfs::SetWarp).  warp = 0 disables.
  void SetWarpState(double w) { row().warp_eff = w; }

  // --- cold fields ------------------------------------------------------------
  // Declaration order packs 8-byte, then 4-byte, then 1-byte members so the
  // whole Entity is exactly three cache lines (the alignas(64) row rounds
  // sizeof up to a multiple of 64; sloppy ordering here costs a fourth line
  // per entity, which is measurable at 10k threads).

  // Linux 2.2-style time-sharing state: remaining timeslice in timer ticks and
  // the static priority added at every epoch recalculation.
  std::int64_t counter = 0;

  Tick total_service = 0;  // cumulative CPU time received

  int priority = 0;               // time-sharing static priority
  CpuId cpu = kInvalidCpu;        // processor currently running this thread
  CpuId last_cpu = kInvalidCpu;   // processor that last ran it (affinity hint)
  CpuId partition = kInvalidCpu;  // home shard (ShardedScheduler; seeded by AddThread's hint)

  // True while the readjustment algorithm holds this thread's share capped at 1/p.
  // Maintained by ReadjustQueue so that restoring former caps costs O(p), not O(t).
  bool capped = false;

  // --- generic state maintained by the Scheduler base class ---
  bool runnable = false;
  bool running = false;

  // Intrusive queue hooks: the weight queue of Section 3.1 that the GPS
  // policies share, and the policy's own queue, which each entity sits on
  // for the one policy that owns it (SFS's phi class, SFQ's start-tag queue,
  // WFQ's finish-tag queue, H-SFS's class members, the time-sharing run
  // queue).  They leave 48 spare bytes at the end of the third line; a member
  // past those costs a fourth line.
  common::ListHook by_weight;  // runnable threads, descending weight
  common::ListHook by_queue;   // the owning policy's run queue
};
static_assert(sizeof(Entity) == 192, "entity must stay three cache lines");

}  // namespace sfs::sched

#endif  // SFS_SCHED_ENTITY_H_
