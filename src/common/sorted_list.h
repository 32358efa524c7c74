// Sorted intrusive list — the run-queue structure from Section 3.1.
//
// The paper's kernel keeps its queues of runnable threads in sorted order by a
// key that occasionally changes.  This container reproduces that structure for
// the policies that order one queue by a single tag — SFQ's start-tag queue,
// WFQ's finish-tag queue and H-SFS's class members: a doubly-linked intrusive
// list kept sorted by a caller-supplied key extractor, with
//   * sorted insertion by linear scan from either end (the kernel used the
//     same; Section 3.2 notes binary search would shave the constant but the
//     list is the data structure),
//   * O(1) removal,
//   * `Resort()` — in-place insertion sort, chosen by the paper because the queue is
//     "mostly in sorted order" after key updates and insertion sort is near-linear
//     on almost-sorted input.
// SFS itself files threads in phi classes and a weight queue of its own
// (sched::Sfs, sched::WeightQueue).
//
// Determinism contract, relied on by every scheduler in this library (the paper
// says "ties are broken arbitrarily"; here they never are):
//   * ascending key order with FIFO among equal keys (strictly-less
//     comparisons), for Insert and InsertFromBack alike;
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

  void Clear() { list_.clear(); }

  // Re-establishes sorted order after keys changed, via insertion sort.  Near-linear
  // when the list is already mostly sorted (WFQ re-predicting every finish tag
  // after a readjustment moves only the threads whose phi changed).
  void Resort() {
    T* first = list_.front();
    if (first == nullptr) {
      return;
    }
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
      }
      cur = following;
    }
  }

 private:
  IntrusiveList<T, Hook> list_;
};

}  // namespace sfs::common

#endif  // SFS_COMMON_SORTED_LIST_H_
