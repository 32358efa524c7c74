#include "src/eval/heuristic_sfs.h"

#include <algorithm>

#include "src/common/assert.h"

namespace sfs::eval {

using sched::CpuId;
using sched::Entity;
using sched::kInvalidCpu;

namespace {

// Strict (surplus, tid) order, as in sched::Sfs: true iff `e` with surplus
// `s` beats the current `best`.
bool Precedes(double s, const Entity* e, double best_s, const Entity* best) {
  return best == nullptr || s < best_s || (s == best_s && e->tid < best->tid);
}

}  // namespace

HeuristicSfs::HeuristicSfs(const sched::SchedConfig& config, int k, int refresh_period)
    : Sfs(config), k_(static_cast<std::size_t>(k)), refresh_period_(refresh_period) {
  SFS_CHECK(k >= 1);
  SFS_CHECK(refresh_period >= 1);
}

// A thread entering the runnable set is filed at its fresh surplus against
// the virtual time before it joined.
void HeuristicSfs::OnAdmit(Entity& e) {
  last_k_stale_ = true;
  const double v = VirtualTime();
  Sfs::OnAdmit(e);
  Insert(e, FreshSurplus(e, v));
}

void HeuristicSfs::OnWoken(Entity& e) {
  last_k_stale_ = true;
  const double v = VirtualTime();
  Sfs::OnWoken(e);
  Insert(e, FreshSurplus(e, v));
}

void HeuristicSfs::OnRemove(Entity& e) {
  if (e.runnable) {
    last_k_stale_ = true;
    Erase(e);
  }
  Sfs::OnRemove(e);
}

void HeuristicSfs::OnBlocked(Entity& e) {
  last_k_stale_ = true;
  Erase(e);
  Sfs::OnBlocked(e);
}

void HeuristicSfs::OnWeightChanged(Entity& e, sched::Weight old_weight) {
  last_k_stale_ = true;
  Sfs::OnWeightChanged(e, old_weight);
}

void HeuristicSfs::OnCharge(Entity& e, Tick ran_for) {
  Sfs::OnCharge(e, ran_for);
  Erase(e);
  Insert(e, FreshSurplus(e, VirtualTime()));
}

void HeuristicSfs::OnPhiChanged(Entity& e) {
  Sfs::OnPhiChanged(e);
  phi_changed_ = true;
}

void HeuristicSfs::OnWarpChanged(Entity& e) {
  if (e.runnable) {
    Erase(e);
    Insert(e, FreshSurplus(e, VirtualTime()));
  }
}

Entity* HeuristicSfs::PickNextEntity(CpuId cpu) {
  const double v = BeginDecision();
  // "Infrequent updates and sorting are still required to maintain a high
  // accuracy of the heuristic" (Section 3.2).
  if (phi_changed_ || ++decisions_since_refresh_ >= refresh_period_) {
    Refresh(v);
  }
  return Dispatching(Pick(v, cpu));
}

void HeuristicSfs::Insert(Entity& e, double surplus) {
  const auto tid = static_cast<std::size_t>(e.tid);
  if (tid >= stored_.size()) {
    stored_.resize(tid + 1);
  }
  stored_[tid] = surplus;
  const Slot slot{surplus, e.tid, &e};
  order_.insert(std::upper_bound(order_.begin(), order_.end(), slot, Before), slot);
}

void HeuristicSfs::Erase(const Entity& e) {
  const Slot key{stored_[static_cast<std::size_t>(e.tid)], e.tid, nullptr};
  const auto it = std::lower_bound(order_.begin(), order_.end(), key, Before);
  SFS_CHECK(it != order_.end() && it->e == &e);
  order_.erase(it);
}

void HeuristicSfs::Refresh(double v) {
  for (Slot& slot : order_) {
    slot.surplus = FreshSurplus(*slot.e, v);
    stored_[static_cast<std::size_t>(slot.tid)] = slot.surplus;
  }
  for (std::size_t i = 1; i < order_.size(); ++i) {
    const Slot slot = order_[i];
    std::size_t j = i;
    for (; j > 0 && Before(slot, order_[j - 1]); --j) {
      order_[j] = order_[j - 1];
    }
    order_[j] = slot;
  }
  phi_changed_ = false;
  decisions_since_refresh_ = 0;
}

template <typename Fn>
void HeuristicSfs::ForFirstKByStartTag(Fn&& fn) {
  // (S, tid) is a total order, so merging the classes' queues yields exactly
  // the order one global start-tag queue would hold.  The cursors stay
  // sorted by key: the front cursor's entry is visited, then that cursor
  // advances and sinks past the cursors with smaller keys.
  auto by_key = [](const MergeCursor& a, const MergeCursor& b) { return a.key < b.key; };
  merge_.clear();
  ForEachClass([this](PhiClass& cls) {
    Entity* head = cls.queue.front();
    merge_.push_back({sched::ByStartTagAsc::Key(*head), head, &cls});
  });
  std::sort(merge_.begin(), merge_.end(), by_key);
  std::size_t first = 0;  // cursors before `first` are exhausted
  for (std::size_t visited = 0; visited < k_ && first < merge_.size(); ++visited) {
    MergeCursor& cursor = merge_[first];
    fn(cursor.e);
    cursor.e = cursor.cls->queue.next(cursor.e);
    if (cursor.e == nullptr) {
      ++first;
      continue;
    }
    cursor.key = sched::ByStartTagAsc::Key(*cursor.e);
    for (std::size_t i = first; i + 1 < merge_.size() && merge_[i + 1].key < merge_[i].key; ++i) {
      std::swap(merge_[i], merge_[i + 1]);
    }
  }
}

void HeuristicSfs::GatherLastK() {
  last_k_.clear();
  last_k_stale_ = false;
  sched::WeightQueue& queue = weight_queue();
  std::size_t whole = 0;  // entries of runs lighter than the last one gathered
  for (Entity* e = queue.back(); e != nullptr; e = queue.prev(e)) {
    if (!last_k_.empty() && e->weight() != last_k_.back()->weight()) {
      if (last_k_.size() >= k_) {
        break;
      }
      whole = last_k_.size();
    }
    last_k_.push_back(e);
  }
  if (last_k_.size() > k_) {
    // k ends inside the last run gathered: keep its highest tids.
    std::nth_element(last_k_.begin() + static_cast<std::ptrdiff_t>(whole),
                     last_k_.begin() + static_cast<std::ptrdiff_t>(k_), last_k_.end(),
                     [](const Entity* a, const Entity* c) { return a->tid > c->tid; });
    last_k_.resize(k_);
  }
}

Entity* HeuristicSfs::Pick(double v, CpuId cpu) {
  Entity* best = nullptr;
  double best_surplus = 0.0;
  Entity* best_affine = nullptr;
  double best_affine_surplus = 0.0;
  auto consider = [&](Entity* e) {
    if (e->running) {
      return;
    }
    const double s = FreshSurplus(*e, v);
    if (Precedes(s, e, best_surplus, best)) {
      best = e;
      best_surplus = s;
    }
    if (cpu != kInvalidCpu && e->last_cpu == cpu &&
        Precedes(s, e, best_affine_surplus, best_affine)) {
      best_affine = e;
      best_affine_surplus = s;
    }
  };
  for (std::size_t i = 0; i < k_ && i < order_.size(); ++i) {
    consider(order_[i].e);
  }
  ForFirstKByStartTag(consider);
  // The weight queue is descending; examine it backwards — smallest weights
  // first (footnote 8).
  if (last_k_stale_) {
    GatherLastK();
  }
  std::for_each(last_k_.begin(), last_k_.end(), consider);
  if (best == nullptr) {
    // Degenerate small k: every examined thread is already running on another
    // processor.  Fall back to a scan of the surplus order (at most p-1 skips).
    for (const Slot& slot : order_) {
      if (!slot.e->running) {
        return slot.e;
      }
    }
    return nullptr;
  }
  if (best_affine != nullptr && best_affine != best &&
      best_affine_surplus <= best_surplus + static_cast<double>(config().affinity_tolerance)) {
    return best_affine;
  }
  return best;
}

HeuristicSfs::HeuristicAudit HeuristicSfs::AuditHeuristic() {
  HeuristicAudit audit;
  const double v = VirtualTime();
  if (const Entity* h = Pick(v, kInvalidCpu); h != nullptr) {
    audit.heuristic_pick = h->tid;
    audit.heuristic_surplus = FreshSurplus(*h, v);
  }
  double exact_surplus = 0.0;
  if (const Entity* exact = LeastSurplus(v, &exact_surplus); exact != nullptr) {
    audit.exact_pick = exact->tid;
    audit.exact_surplus = exact_surplus;
  }
  return audit;
}

std::string HeuristicSfs::CheckInvariants() const {
  if (std::string base = Sfs::CheckInvariants(); !base.empty()) {
    return base;
  }
  if (order_.size() != static_cast<std::size_t>(runnable_count())) {
    return "the surplus order holds " + std::to_string(order_.size()) + " threads, " +
           std::to_string(runnable_count()) + " are runnable";
  }
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Slot& slot = order_[i];
    if (!slot.e->runnable || slot.e->tid != slot.tid ||
        stored_[static_cast<std::size_t>(slot.tid)] != slot.surplus) {
      return "the surplus order files a blocked thread or a stale key at thread " +
             std::to_string(slot.tid);
    }
    if (i > 0 && !Before(order_[i - 1], slot)) {
      return "the surplus order is out of (stored surplus, tid) order at thread " +
             std::to_string(slot.tid);
    }
  }
  if (!last_k_stale_) {
    std::vector<std::pair<double, sched::ThreadId>> queued;
    for (const Entity* e = weight_queue().front(); e != nullptr; e = weight_queue().next(e)) {
      queued.push_back(sched::ByWeightDesc::Key(*e));
    }
    std::sort(queued.begin(), queued.end());
    queued.erase(queued.begin(), queued.end() - static_cast<std::ptrdiff_t>(
                                                    std::min(k_, queued.size())));
    const auto key = [](const Entity* e) { return sched::ByWeightDesc::Key(*e); };
    if (!std::ranges::is_permutation(last_k_, queued, {}, key)) {
      return "the kept last-k entries are not the last k of the weight queue";
    }
  }
  return {};
}

}  // namespace sfs::eval
