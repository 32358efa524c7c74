// Sorted intrusive list — the run-queue structure from Section 3.1.
//
// The kernel implementation keeps three queues of runnable threads, each maintained
// in sorted order by a key that occasionally changes (weight, start tag, surplus).
// This container reproduces that structure: a doubly-linked intrusive list kept
// sorted by a caller-supplied key extractor, with
//   * sorted insertion by linear scan (the kernel used the same; Section 3.2 notes
//     binary search would shave the constant but the list is the data structure),
//   * O(1) removal,
//   * `Resort()` — in-place insertion sort, chosen by the paper because the queue is
//     "mostly in sorted order" after surplus updates and insertion sort is near-linear
//     on almost-sorted input,
//   * bounded scans of the first k elements for the Section 3.2 heuristic.
//
// Determinism contract, relied on by every scheduler in this library (the paper
// says "ties are broken arbitrarily"; here they never are):
//   * ascending key order with FIFO among equal keys (strictly-less
//     comparisons), for Insert, InsertFromBack and Reposition alike;
//   * every scheduler key ends in a ThreadId tie-break, so queue order — and
//     therefore every dispatch decision — is a total order;
//   * Remove accepts an element whose key was already mutated (the
//     tag-update-then-reposition pattern of OnCharge): removal is by link,
//     never by key.

#ifndef SFS_COMMON_SORTED_LIST_H_
#define SFS_COMMON_SORTED_LIST_H_

#include <cstddef>

#include "src/common/intrusive_list.h"

namespace sfs::common {

// KeyFn: struct with `static KeyType Key(const T&)`; KeyType must be totally ordered.
template <typename T, ListHook T::*Hook, typename KeyFn>
class SortedList {
 public:
  bool empty() const { return list_.empty(); }
  std::size_t size() const { return list_.size(); }
  T* front() { return list_.front(); }
  const T* front() const { return list_.front(); }
  T* back() { return list_.back(); }
  const T* back() const { return list_.back(); }
  bool contains(const T* elem) const { return list_.contains(elem); }
  T* next(T* elem) { return list_.next(elem); }
  T* prev(T* elem) { return list_.prev(elem); }
  const T* next(const T* elem) const { return list_.next(elem); }
  const T* prev(const T* elem) const { return list_.prev(elem); }

  // Inserts keeping ascending key order, scanning from the front.  Equal keys are
  // placed after existing ones (FIFO among ties).
  void Insert(T* elem) {
    const auto key = KeyFn::Key(*elem);
    for (T* cur : list_) {
      if (key < KeyFn::Key(*cur)) {
        list_.insert_before(cur, elem);
        return;
      }
    }
    list_.push_back(elem);
  }

  // Inserts scanning from the back; cheaper when the new key is likely large
  // (e.g. re-queueing the thread that just ran).
  void InsertFromBack(T* elem) {
    const auto key = KeyFn::Key(*elem);
    T* cur = list_.back();
    while (cur != nullptr && key < KeyFn::Key(*cur)) {
      cur = list_.prev(cur);
    }
    if (cur == nullptr) {
      list_.push_front(elem);
    } else {
      list_.insert_after(cur, elem);
    }
  }

  void Remove(T* elem) { list_.erase(elem); }

  T* PopFront() { return list_.pop_front(); }

  void Clear() { list_.clear(); }

  // Re-establishes sorted order after keys changed, via insertion sort.  Near-linear
  // when the list is already mostly sorted (the common case after a virtual-time
  // advance recomputes all surpluses; see Section 3.2).  Returns the number of
  // elements moved — an element moves exactly when its key dropped below the
  // running maximum of the elements before it.
  std::size_t Resort() {
    T* first = list_.front();
    if (first == nullptr) {
      return 0;
    }
    std::size_t moved = 0;
    T* cur = list_.next(first);
    while (cur != nullptr) {
      T* following = list_.next(cur);
      const auto key = KeyFn::Key(*cur);
      T* scan = list_.prev(cur);
      if (scan != nullptr && key < KeyFn::Key(*scan)) {
        // Walk left to the first element not greater than `cur`.
        while (list_.prev(scan) != nullptr && key < KeyFn::Key(*list_.prev(scan))) {
          scan = list_.prev(scan);
        }
        list_.erase(cur);
        list_.insert_before(scan, cur);
        ++moved;
      }
      cur = following;
    }
    return moved;
  }

  // Repositions a single element whose key changed, the rest of the list being
  // sorted.  O(distance moved): walks backward from the old predecessor when
  // the key dropped below it, else forward from the old successor.  Lands
  // where Remove + Insert would: after every element with an equal key.
  void Reposition(T* elem) {
    const auto key = KeyFn::Key(*elem);
    T* before = list_.prev(elem);
    T* after = list_.next(elem);
    list_.erase(elem);
    if (before != nullptr && key < KeyFn::Key(*before)) {
      while (before != nullptr && key < KeyFn::Key(*before)) {
        before = list_.prev(before);
      }
      if (before == nullptr) {
        list_.push_front(elem);
      } else {
        list_.insert_after(before, elem);
      }
      return;
    }
    while (after != nullptr && !(key < KeyFn::Key(*after))) {
      after = list_.next(after);
    }
    if (after == nullptr) {
      list_.push_back(elem);
    } else {
      list_.insert_before(after, elem);
    }
  }

  // Calls `fn(elem)` for the first `k` elements (front of the queue = smallest keys).
  // Returns the number visited.  Used by the Section 3.2 scheduling heuristic.
  template <typename Fn>
  std::size_t ForFirstK(std::size_t k, Fn&& fn) {
    std::size_t visited = 0;
    for (T* cur = list_.front(); cur != nullptr && visited < k; cur = list_.next(cur)) {
      fn(cur);
      ++visited;
    }
    return visited;
  }

  // Calls `fn(elem)` for the last `k` elements, scanning backwards.  The heuristic
  // examines the weight queue (descending weights) from the back, i.e. smallest
  // weights first (paper footnote 8).
  template <typename Fn>
  std::size_t ForLastK(std::size_t k, Fn&& fn) {
    std::size_t visited = 0;
    for (T* cur = list_.back(); cur != nullptr && visited < k; cur = list_.prev(cur)) {
      fn(cur);
      ++visited;
    }
    return visited;
  }

  // Debug helper: true iff keys are in non-decreasing order.
  bool IsSorted() const {
    const T* prev = nullptr;
    for (const T* cur : list_) {
      if (prev != nullptr && KeyFn::Key(*cur) < KeyFn::Key(*prev)) {
        return false;
      }
      prev = cur;
    }
    return true;
  }

 private:
  IntrusiveList<T, Hook> list_;
};

}  // namespace sfs::common

#endif  // SFS_COMMON_SORTED_LIST_H_
