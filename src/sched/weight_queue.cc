#include "src/sched/weight_queue.h"

#include <algorithm>

#include "src/common/assert.h"

namespace sfs::sched {

std::vector<WeightQueue::Bucket>::iterator WeightQueue::LowerBound(Weight w) {
  return std::lower_bound(buckets_.begin(), buckets_.end(), w,
                          [](const Bucket& b, Weight weight) { return b.weight > weight; });
}

void WeightQueue::Insert(Entity* e) {
  last_k_stale_ = true;
  const auto it = LowerBound(e->weight());
  if (it == buckets_.end() || it->weight != e->weight()) {
    // A weight no queued thread has: its run goes in front of the next
    // lighter run, or last.
    if (it == buckets_.end()) {
      list_.push_back(e);
    } else {
      list_.insert_before(it->first, e);
    }
    buckets_.insert(it, Bucket{e->weight(), e, e});
    return;
  }
  // Join the run at its back: members of a run keep no order (weight_queue.h).
  list_.insert_after(it->last, e);
  it->last = e;
}

void WeightQueue::Unlink(Entity* e, Weight filed_weight) {
  last_k_stale_ = true;
  // With a neighbour of its filed weight on both sides, `e` is neither the
  // first nor the last member of its run, so no bucket changes.  (Only `e`'s
  // weight may differ from the one it was filed with.)
  const Entity* before = list_.prev(e);
  const Entity* after = list_.next(e);
  if (before != nullptr && after != nullptr && before->weight() == filed_weight &&
      after->weight() == filed_weight) {
    list_.erase(e);
    return;
  }
  const auto it = LowerBound(filed_weight);
  SFS_DCHECK(it != buckets_.end() && it->weight == filed_weight);
  if (it->first == e) {
    if (it->last == e) {
      buckets_.erase(it);
    } else {
      it->first = list_.next(e);
    }
  } else if (it->last == e) {
    it->last = list_.prev(e);
  }
  list_.erase(e);
}

void WeightQueue::Reposition(Entity* e, Weight old_weight) {
  if (e->weight() == old_weight) {
    return;  // same key, same place
  }
  Unlink(e, old_weight);
  Insert(e);
}

void WeightQueue::Clear() {
  list_.clear();
  buckets_.clear();
  last_k_stale_ = true;
}

void WeightQueue::GatherLastK(std::size_t k) {
  last_k_.clear();
  last_k_count_ = k;
  last_k_stale_ = false;
  for (auto b = buckets_.rbegin(); b != buckets_.rend() && last_k_.size() < k; ++b) {
    const std::size_t whole = last_k_.size();  // entries of lighter runs
    for (Entity* e = b->last;; e = list_.prev(e)) {
      last_k_.push_back(e);
      if (e == b->first) {
        break;
      }
    }
    if (last_k_.size() > k) {
      // k ends inside this run: keep its highest tids.
      const auto run = last_k_.begin() + static_cast<std::ptrdiff_t>(whole);
      const auto kept = last_k_.begin() + static_cast<std::ptrdiff_t>(k);
      std::nth_element(run, kept, last_k_.end(),
                       [](const Entity* a, const Entity* c) { return a->tid > c->tid; });
      last_k_.resize(k);
    }
  }
}

std::string WeightQueue::CheckIndex() const {
  const auto at = [](const char* what, ThreadId tid) {
    return std::string(what) + " " + std::to_string(tid);
  };
  std::size_t bucket = 0;
  const Entity* prev = nullptr;
  for (const Entity* e : list_) {
    if (prev != nullptr && prev->weight() < e->weight()) {
      return at("weight queue out of descending weight order at thread", e->tid);
    }
    if (prev == nullptr || prev->weight() != e->weight()) {
      if (bucket == buckets_.size() || buckets_[bucket].weight != e->weight() ||
          buckets_[bucket].first != e) {
        return at("no weight bucket starts at the run opened by thread", e->tid);
      }
      ++bucket;
    }
    const Entity* next = list_.next(e);
    if ((next == nullptr || next->weight() != e->weight()) && buckets_[bucket - 1].last != e) {
      return at("the weight bucket does not end at the run closed by thread", e->tid);
    }
    prev = e;
  }
  if (bucket != buckets_.size()) {
    return "the weight queue holds " + std::to_string(bucket) + " distinct weights, its index " +
           std::to_string(buckets_.size());
  }
  return {};
}

}  // namespace sfs::sched
