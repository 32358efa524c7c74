#include "src/sched/sfs.h"

#include <algorithm>
#include <limits>

#include "src/common/assert.h"

namespace sfs::sched {
namespace {

// Strict (surplus, tid) order — the paper's "ties are broken arbitrarily",
// made deterministic: true iff `e` with surplus `s` beats the current `best`.
bool Precedes(double s, const Entity* e, double best_s, const Entity* best) {
  return best == nullptr || s < best_s || (s == best_s && e->tid < best->tid);
}

}  // namespace

Sfs::Sfs(const SchedConfig& config) : GpsSchedulerBase(config) {}

Sfs::~Sfs() {
  for (PhiClass& cls : classes_) {
    cls.queue.Clear();
  }
}

void Sfs::RecomputeVirtualTime() const {
  double v = std::numeric_limits<double>::infinity();
  for (const HeadKey& k : keys_) {
    v = std::min(v, k.front_tag);
  }
  v_ = v;
  v_stale_ = false;
}

double Sfs::Surplus(ThreadId tid) const {
  const Entity& e = FindEntity(tid);
  SFS_CHECK(e.runnable);
  return FreshSurplus(e, VirtualTime());
}

void Sfs::SetWarp(ThreadId tid, double warp) {
  Entity& e = FindEntity(tid);
  e.SetWarpState(warp);
  if (e.phi_class() >= 0) {
    Refile(e);
  }
  OnWarpChanged(e);
}

Sfs::PhiClass* Sfs::FindClass(Weight phi, double warp_eff) {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i].phi == phi && keys_[i].warp_eff == warp_eff) {
      return heads_[i].cls;
    }
  }
  return nullptr;
}

void Sfs::File(Entity& e, PhiClass* cls) {
  if (cls == nullptr) {
    if (free_classes_.empty()) {
      cls = &classes_.emplace_back();
      cls->slot = static_cast<std::int32_t>(classes_.size() - 1);
    } else {
      cls = free_classes_.back();
      free_classes_.pop_back();
    }
    cls->head_pos = static_cast<std::uint32_t>(heads_.size());
    heads_.emplace_back().cls = cls;
    HeadKey& key = keys_.emplace_back();
    key.phi = e.phi();
    key.warp_eff = e.warp_eff();
    MarkStale(*cls);
  }
  e.phi_class() = cls->slot;
  Link(*cls, e);
  ++filed_;
}

void Sfs::MarkStale(PhiClass& cls) {
  if (!cls.stale) {
    cls.stale = true;
    stale_.push_back(&cls);
  }
}

void Sfs::RefreshHead(HeadKey& key, ClassHead& h) {
  // The front run's head is also the queue's front, which the class itself
  // holds: its load need not wait for the run index's.
  FindIdle(key, h, 0, h.cls->queue.front());
}

void Sfs::FindIdle(HeadKey& key, ClassHead& h, std::size_t pos, Entity* from) {
  PhiClass& cls = *h.cls;
  for (; pos < cls.queue.runs(); ++pos) {
    if (Entity* idle = cls.FirstIdle(pos, from); idle != nullptr) {
      h.idle = idle;
      h.idle_pos = static_cast<std::uint32_t>(pos);
      key.idle_tag = cls.queue.run(pos).key;
      h.idle_tid = idle->tid;
      return;
    }
    from = cls.queue.RunEnd(pos);
  }
  h.idle = nullptr;
  key.idle_tag = std::numeric_limits<double>::infinity();
  h.idle_tid = kInvalidThread;
}

void Sfs::Link(PhiClass& cls, Entity& e) {
  const auto [pos, opens] = cls.queue.InsertByTid(&e, &filing_probes_);
  HeadKey& key = keys_[cls.head_pos];
  key.front_tag = cls.queue.run(0).key;
  if (!cls.stale) {
    ClassHead& head = heads_[cls.head_pos];
    // Keep the idle candidate current: an idle e that precedes it takes its
    // place, and a run opened before it moves its run one position on.
    if (!e.running &&
        (head.idle == nullptr || pos < head.idle_pos ||
         (pos == head.idle_pos && (opens || e.tid < head.idle_tid)))) {
      head.idle = &e;
      head.idle_pos = static_cast<std::uint32_t>(pos);
      key.idle_tag = e.start_tag();
      head.idle_tid = e.tid;
    } else if (opens && head.idle != nullptr && pos <= head.idle_pos) {
      ++head.idle_pos;
    }
  }
  v_ = std::min(v_, e.start_tag());
}

void Sfs::Unlink(PhiClass& cls, Entity& e) {
  const double s = e.start_tag();
  const std::size_t closed = cls.queue.Erase(&e, s, &filing_probes_);
  HeadKey& key = keys_[cls.head_pos];
  ClassHead& head = heads_[cls.head_pos];
  key.front_tag =
      cls.queue.empty() ? std::numeric_limits<double>::infinity() : cls.queue.run(0).key;
  // The idle candidate stays unless it is e (then the next one must be
  // found); a run closed before it moves its run one position back.
  if (&e == head.idle) {
    MarkStale(cls);
  } else if (closed != PhiQueue::kNoRun && head.idle != nullptr && closed < head.idle_pos) {
    --head.idle_pos;
  }
  if (s == v_ && key.front_tag != s) {
    v_stale_ = true;  // e may have been the only thread at v
  }
}

void Sfs::Unfile(Entity& e) {
  PhiClass* cls = &classes_[static_cast<std::size_t>(e.phi_class())];
  Unlink(*cls, e);
  e.phi_class() = -1;
  --filed_;
  if (!cls->queue.empty()) {
    return;
  }
  // Recycle the emptied class: capped phis take a fresh value on most
  // arrivals and exits, and mostly-blocked shards empty classes on almost
  // every block, so classes come and go all the time.
  keys_[cls->head_pos] = keys_.back();
  keys_.pop_back();
  heads_[cls->head_pos] = heads_.back();
  heads_[cls->head_pos].cls->head_pos = cls->head_pos;
  heads_.pop_back();
  free_classes_.push_back(cls);
}

void Sfs::Refile(Entity& e) {
  PhiClass* from = &classes_[static_cast<std::size_t>(e.phi_class())];
  PhiClass* to = FindClass(e.phi(), e.warp_eff());
  if (to == from) {
    return;  // SetWarp to the warp it already had
  }
  ++refresh_repositions_;
  if (to == nullptr && from->queue.size() == 1) {
    // Sole member moving to a pair no class holds: relabel in place.
    HeadKey& key = keys_[from->head_pos];
    key.phi = e.phi();
    key.warp_eff = e.warp_eff();
    return;
  }
  Unfile(e);
  File(e, to);
}

void Sfs::OnPhiChanged(Entity& e) {
  // The entity being admitted or retired is not filed yet (or any more); it
  // is filed with its final phi by OnAdmit, OnWoken or OnAttach.
  if (e.phi_class() >= 0) {
    Refile(e);
  }
}

void Sfs::OnAdmit(Entity& e) {
  // New threads start at the virtual time: S_i = v (Section 2.3).
  e.start_tag() = VirtualTime();
  e.finish_tag() = e.start_tag();
  if (AdmitWeight(e)) {
    need_refresh_ = true;
  }
  File(e, FindClass(e.phi(), e.warp_eff()));
}

void Sfs::OnRemove(Entity& e) {
  if (e.runnable) {
    Unfile(e);
    if (RetireWeight(e)) {
      need_refresh_ = true;
    }
  }
}

void Sfs::OnBlocked(Entity& e) {
  Unfile(e);
  if (RetireWeight(e)) {
    need_refresh_ = true;
  }
  if (filed_ == 0) {
    // All processors idle: freeze the virtual time at the finish tag of the
    // thread that ran last (Section 2.3).
    idle_virtual_time_ = std::max(idle_virtual_time_, e.finish_tag());
  }
}

void Sfs::OnWoken(Entity& e) {
  // S_i = max(F_i, v): no credit accumulates while sleeping (Equation 6).
  e.start_tag() = std::max(e.finish_tag(), VirtualTime());
  if (AdmitWeight(e)) {
    need_refresh_ = true;
  }
  File(e, FindClass(e.phi(), e.warp_eff()));
}

void Sfs::OnAttach(Entity& e) {
  // A migrated entity keeps its translated start tag verbatim — unlike a
  // wakeup, no max(F, v) clamp: a coupled migrant may arrive *behind* the
  // local virtual time precisely so it gets compensated for past under-service
  // in its source shard.
  if (AdmitWeight(e)) {
    need_refresh_ = true;
  }
  File(e, FindClass(e.phi(), e.warp_eff()));
}

void Sfs::OnWeightChanged(Entity& e, Weight old_weight) {
  if (UpdateWeight(e, old_weight)) {
    need_refresh_ = true;
  }
}

Entity* Sfs::PickNextEntity(CpuId cpu) { return Dispatching(ExactPick(cpu, BeginDecision())); }

Entity* Sfs::Dispatching(Entity* e) {
  if (e == nullptr) {
    return e;
  }
  PhiClass& cls = classes_[static_cast<std::size_t>(e->phi_class())];
  ClassHead& head = heads_[cls.head_pos];
  if (!cls.stale && head.idle == e) {
    // Every member before e runs, so the next candidate follows e.
    FindIdle(keys_[cls.head_pos], head, head.idle_pos, cls.queue.next(e));
  } else {
    MarkStale(cls);
  }
  return e;
}

double Sfs::BeginDecision() {
  double v = VirtualTime();
  if (MaybeRebase(v)) {
    v = VirtualTime();
  }
  ++decisions_;
  // The classes are always in order, so there is nothing to refresh.  Count
  // the decisions at which the surplus-queue algorithm would have refreshed
  // (see full_refreshes()).
  if (need_refresh_ || v != last_refresh_v_) {
    last_refresh_v_ = v;
    need_refresh_ = false;
    ++full_refreshes_;
  }
  return v;
}

void Sfs::OnCharge(Entity& e, Tick ran_for) {
  // Reposition within its class (phi did not change): out at the tag it was
  // filed with, back in at the new one.
  PhiClass& cls = classes_[static_cast<std::size_t>(e.phi_class())];
  Unlink(cls, e);
  // F_i = S_i + q / phi_i with q the *actual* time run (Equation 5); a thread that
  // stays runnable continues from its finish tag (Equation 6).
  e.finish_tag() = e.start_tag() + arith().WeightedService(ran_for, e.phi());
  e.start_tag() = e.finish_tag();
  Link(cls, e);
  if (filed_ == 1) {
    // Only this thread runnable: remember its finish tag for the idle rule.
    idle_virtual_time_ = std::max(idle_virtual_time_, e.finish_tag());
  }
}

CpuId Sfs::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& w = FindEntity(woken);
  if (!w.runnable || w.running) {
    return kInvalidCpu;
  }
  const double v = VirtualTime();
  const double woken_surplus = FreshSurplus(w, v);
  CpuId victim = kInvalidCpu;
  double worst = woken_surplus;
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const ThreadId running = RunningOn(cpu);
    if (running == kInvalidThread) {
      continue;
    }
    const Entity& r = FindEntity(running);
    // Surplus the running thread would have if charged right now: its start tag
    // advances by elapsed / phi, so in the fluid model its surplus alpha =
    // phi * (S - v) grows by exactly `elapsed`.  (Round-tripping elapsed
    // through the fixed-point WeightedService quantization and multiplying phi
    // back would distort the projection and can pick the wrong victim.)
    const double s = FreshSurplus(r, v) + static_cast<double>(elapsed[static_cast<std::size_t>(cpu)]);
    if (s > worst) {
      worst = s;
      victim = cpu;
    }
  }
  return victim;
}

bool Sfs::MaybeRebase(double v) {
  if (v <= config().tag_rebase_threshold) {
    return false;
  }
  // Shift all tags down by `v` — the minimum start tag over runnable threads,
  // by definition of the virtual time — so the new virtual time is 0.
  // Orderings and surpluses are invariant under the uniform shift; queue
  // structures need no resort.  Two values need care:
  //   * a blocked thread's finish tag can lie below v and would drift toward
  //     -inf over repeated rebases; since wakeup applies S = max(F, v') with
  //     v' >= 0 after the shift, clamping such tags at 0 is behaviour-
  //     identical and keeps them bounded;
  //   * `last_refresh_v_` must shift with the tags unconditionally, or the
  //     `v != last_refresh_v_` check desynchronizes and every subsequent
  //     decision counts a spurious full refresh.
  const double delta = v;
  ForEachEntity([delta](Entity& e) {
    e.start_tag() -= delta;
    e.finish_tag() -= delta;
    if (!e.runnable && e.finish_tag() < 0.0) {
      e.finish_tag() = 0.0;
    }
  });
  for (ClassHead& h : heads_) {
    PhiClass& cls = *h.cls;
    for (std::size_t pos = 0; pos < cls.queue.runs(); ++pos) {
      const double tag = cls.queue.run(pos).head->start_tag();
      if (pos > 0 && tag == cls.queue.run(pos - 1).key) {
        MergeRuns(cls, pos--);
      } else {
        cls.queue.run(pos).key = tag;
      }
    }
    keys_[cls.head_pos].front_tag = cls.queue.run(0).key;
    MarkStale(cls);
  }
  v_stale_ = true;
  idle_virtual_time_ = std::max(0.0, idle_virtual_time_ - delta);
  last_refresh_v_ -= delta;
  ++rebases_;
  return true;
}

void Sfs::MergeRuns(PhiClass& cls, std::size_t pos) {
  // Take run pos's members out by its old tag, above run pos - 1's, and file
  // each by tid into run pos - 1, whose tag they now hold.  A merge is no
  // filing, so filing_probes() does not count it.
  const double old_tag = cls.queue.run(pos).key;
  Entity* const end = cls.queue.RunEnd(pos);
  for (Entity* e = cls.queue.run(pos).head; e != end;) {
    Entity* const next = cls.queue.next(e);
    cls.queue.Erase(e, old_tag);
    cls.queue.InsertByTid(e);
    e = next;
  }
}

Entity* Sfs::LeastSurplus(double v, double* surplus) {
  for (PhiClass* cls : stale_) {
    cls->stale = false;
    if (!cls->queue.empty()) {
      RefreshHead(keys_[cls->head_pos], heads_[cls->head_pos]);
    }
  }
  stale_.clear();
  // A class's idle candidate has its least surplus: surplus is
  // non-decreasing along the class, and members of one run share theirs.
  // One pass keeps the least head surplus, the first entry at it, and
  // whether a later entry equals it.
  double least = std::numeric_limits<double>::infinity();
  std::size_t at = 0;
  bool tied = false;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const HeadKey& k = keys_[i];
    const double s = k.phi * (k.idle_tag - v - k.warp_eff);
    if (s < least) {
      least = s;
      at = i;
      tied = false;
    } else if (s == least) {
      tied = true;
    }
  }
  if (least == std::numeric_limits<double>::infinity()) {
    return nullptr;  // every runnable thread is running
  }
  // No entry before `at` holds the least surplus; without a tie only `at`
  // does.
  const std::size_t end = tied ? heads_.size() : at + 1;
  Entity* best = nullptr;
  for (std::size_t i = at; i < end; ++i) {
    const HeadKey& k = keys_[i];
    const ClassHead& h = heads_[i];
    if (k.phi * (k.idle_tag - v - k.warp_eff) != least) {
      continue;
    }
    if (best == nullptr || h.idle_tid < best->tid) {
      best = h.idle;
    }
    // Two different start tags can round to the same surplus.  Such a
    // rounding tie is decided by tid, so walk the later runs sharing it.
    PhiClass& cls = *h.cls;
    for (std::size_t pos = h.idle_pos + 1; pos < cls.queue.runs(); ++pos) {
      if (k.phi * (cls.queue.run(pos).key - v - k.warp_eff) != least) {
        break;
      }
      Entity* const e = cls.FirstIdle(pos, cls.queue.run(pos).head);
      if (e != nullptr && e->tid < best->tid) {
        best = e;
      }
    }
  }
  if (surplus != nullptr) {
    *surplus = least;
  }
  return best;
}

Entity* Sfs::ExactPick(CpuId cpu, double v) {
  double head_surplus = 0.0;
  Entity* head = LeastSurplus(v, &head_surplus);
  if (head == nullptr || config().affinity_tolerance <= 0 || head->last_cpu == cpu) {
    return head;
  }
  // Affinity extension: accept a slightly-larger surplus to stay cache-warm —
  // the least (surplus, tid) thread that last ran on `cpu` within the window.
  // Surplus is non-decreasing along each class, so each walk stops at the
  // first run past the window or past the best match so far; within a run
  // (one surplus, ascending tids) the first match is the run's best.
  const double window = head_surplus + static_cast<double>(config().affinity_tolerance);
  Entity* affine = nullptr;
  double affine_surplus = 0.0;
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    const HeadKey& k = keys_[i];
    PhiClass& cls = *heads_[i].cls;
    for (std::size_t pos = 0; pos < cls.queue.runs(); ++pos) {
      const double s = k.phi * (cls.queue.run(pos).key - v - k.warp_eff);
      if (s > window || (affine != nullptr && s > affine_surplus)) {
        break;
      }
      Entity* const end = cls.queue.RunEnd(pos);
      for (Entity* e = cls.queue.run(pos).head; e != end; e = cls.queue.next(e)) {
        if (!e->running && e->last_cpu == cpu) {
          if (Precedes(s, e, affine_surplus, affine)) {
            affine = e;
            affine_surplus = s;
          }
          break;
        }
      }
    }
  }
  return affine != nullptr ? affine : head;
}

std::string Sfs::CheckInvariants() const {
  const auto at = [](const char* what, std::int64_t index) {
    return std::string(what) + " " + std::to_string(index);
  };
  std::vector<int> listed(classes_.size(), 0);  // stale_ entries by class slot
  for (const PhiClass* cls : stale_) {
    ++listed[static_cast<std::size_t>(cls->slot)];
  }
  std::size_t filed = 0;
  for (std::size_t pos = 0; pos < heads_.size(); ++pos) {
    const HeadKey& key = keys_[pos];
    const ClassHead& head = heads_[pos];
    const PhiClass& cls = *head.cls;
    if (cls.head_pos != pos || cls.queue.empty()) {
      return at("active phi class misfiled at slot", cls.slot);
    }
    if (key.front_tag != cls.queue.front()->start_tag()) {
      return at("head table front tag differs from the class front at slot", cls.slot);
    }
    if (listed[static_cast<std::size_t>(cls.slot)] != (cls.stale ? 1 : 0)) {
      return at("stale mark disagrees with the stale list at slot", cls.slot);
    }
    if (!cls.stale) {
      // A fresh entry must hold what a scan finds now.
      HeadKey scan_key = key;
      ClassHead scan = head;
      RefreshHead(scan_key, scan);
      if (scan.idle != head.idle || scan.idle_pos != head.idle_pos ||
          scan.idle_tid != head.idle_tid || scan_key.idle_tag != key.idle_tag) {
        return at("head entry not marked stale holds an outdated idle candidate at slot",
                  cls.slot);
      }
    }
    if (std::string index = cls.queue.CheckIndex(); !index.empty()) {
      return at("phi class at slot", cls.slot) + ": " + index;
    }
    const Entity* prev = nullptr;
    for (const Entity* e = cls.queue.front(); e != nullptr; e = cls.queue.next(e)) {
      ++filed;
      if (prev != nullptr && !(ByStartTagAsc::Key(*prev) < ByStartTagAsc::Key(*e))) {
        return at("phi class out of (start tag, tid) order at thread", e->tid);
      }
      if (!e->runnable || e->phi_class() != cls.slot) {
        return at("phi class files a blocked or foreign thread", e->tid);
      }
      if (e->phi() != key.phi || e->warp_eff() != key.warp_eff) {
        return at("(phi, warp_eff) disagrees with its class for thread", e->tid);
      }
      prev = e;
    }
  }
  double least_front = std::numeric_limits<double>::infinity();
  for (const HeadKey& key : keys_) {
    least_front = std::min(least_front, key.front_tag);
  }
  if (v_stale_ ? !(v_ <= least_front) : v_ != least_front) {
    return std::string(v_stale_ ? "stale cached virtual time " : "cached virtual time ") +
           std::to_string(v_) + " is not the least front tag " + std::to_string(least_front);
  }
  const auto runnable = static_cast<std::size_t>(runnable_count());
  if (filed != filed_ || filed != runnable) {
    return "the phi classes file " + std::to_string(filed) + " threads, the count says " +
           std::to_string(filed_) + ", " + std::to_string(runnable) + " are runnable";
  }
  std::string violation;
  std::size_t runnable_seen = 0;
  ForEachEntity([&](const Entity& e) {
    runnable_seen += e.runnable ? 1 : 0;
    if (violation.empty() && e.runnable != (e.phi_class() >= 0)) {
      violation = at("filed state disagrees with runnable state for thread", e.tid);
    }
  });
  if (!violation.empty()) {
    return violation;
  }
  if (runnable_seen != runnable) {
    return "the runnable count disagrees with the entity table";
  }
  if (std::string queue = CheckWeightQueue(); !queue.empty()) {
    return queue;
  }
  double phi_sum = 0.0;
  for (const Entity* e = weight_queue().front(); e != nullptr; e = weight_queue().next(e)) {
    if (!e->capped && e->phi() != e->weight()) {
      return at("uncapped phi differs from the requested weight for thread", e->tid);
    }
    phi_sum += e->phi();
  }
  if (config().use_readjustment && runnable > static_cast<std::size_t>(num_cpus())) {
    const double cap = phi_sum / num_cpus();
    for (const Entity* e = weight_queue().front(); e != nullptr; e = weight_queue().next(e)) {
      if (e->phi() > cap * (1.0 + 1e-9)) {
        return at("infeasible phi survived readjustment for thread", e->tid);
      }
    }
  }
  return {};
}

ThreadId Sfs::PeekExactPick(CpuId cpu) {
  const Entity* e = ExactPick(cpu, VirtualTime());
  return e == nullptr ? kInvalidThread : e->tid;
}

}  // namespace sfs::sched
