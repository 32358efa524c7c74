// Intrusive doubly-linked list.
//
// The paper's kernel implementation keeps every runnable thread on three queues
// simultaneously (Section 3.1: by weight, by start tag, by surplus) and relies on
// O(1) unlink when a thread blocks or departs.  An intrusive list gives exactly
// that: the link nodes live inside the scheduling entity, insertion and removal
// never allocate, and one entity can carry several hooks (one per queue).
//
// Element recovery is hook-address arithmetic: the hook's offset inside T is a
// compile-time constant of the `Hook` member pointer, so a hook is two pointers
// — 16 bytes, not 24.  An Entity carries five hooks, so the saved owner
// pointers are what keep it at three cache lines (see entity.h).

#ifndef SFS_COMMON_INTRUSIVE_LIST_H_
#define SFS_COMMON_INTRUSIVE_LIST_H_

#include <cstddef>
#include <iterator>

#include "src/common/assert.h"

namespace sfs::common {

// One link in an intrusive list.  Place one ListHook member in the element type for
// each list the element can concurrently belong to.
class ListHook {
 public:
  ListHook() = default;
  ~ListHook() { SFS_DCHECK(!linked()); }

  ListHook(const ListHook&) = delete;
  ListHook& operator=(const ListHook&) = delete;

  bool linked() const { return next_ != nullptr; }

 private:
  template <typename T, ListHook T::*Hook>
  friend class IntrusiveList;

  ListHook* prev_ = nullptr;
  ListHook* next_ = nullptr;
};

// Intrusive doubly-linked list of T, linked through the member hook `Hook`.
// The list does not own its elements.  All operations are O(1) except size
// verification helpers.
template <typename T, ListHook T::*Hook>
class IntrusiveList {
 public:
  IntrusiveList() {
    sentinel_.prev_ = &sentinel_;
    sentinel_.next_ = &sentinel_;
  }

  ~IntrusiveList() {
    clear();
    // Unlink the sentinel from itself so its ~ListHook invariant check passes.
    sentinel_.prev_ = nullptr;
    sentinel_.next_ = nullptr;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return sentinel_.next_ == &sentinel_; }
  std::size_t size() const { return size_; }

  T* front() { return empty() ? nullptr : Owner(sentinel_.next_); }
  const T* front() const { return empty() ? nullptr : Owner(sentinel_.next_); }
  T* back() { return empty() ? nullptr : Owner(sentinel_.prev_); }
  const T* back() const { return empty() ? nullptr : Owner(sentinel_.prev_); }

  void push_front(T* elem) { LinkAfter(&sentinel_, HookOf(elem), elem); }
  void push_back(T* elem) { LinkAfter(sentinel_.prev_, HookOf(elem), elem); }

  // Inserts `elem` immediately before `pos` (which must be linked in this list).
  void insert_before(T* pos, T* elem) { LinkAfter(HookOf(pos)->prev_, HookOf(elem), elem); }
  void insert_after(T* pos, T* elem) { LinkAfter(HookOf(pos), HookOf(elem), elem); }

  // Unlinks `elem` from the list.  O(1).
  void erase(T* elem) {
    ListHook* h = HookOf(elem);
    SFS_DCHECK(h->linked());
    h->prev_->next_ = h->next_;
    h->next_->prev_ = h->prev_;
    h->prev_ = nullptr;
    h->next_ = nullptr;
    --size_;
  }

  T* pop_front() {
    T* elem = front();
    if (elem != nullptr) {
      erase(elem);
    }
    return elem;
  }

  void clear() {
    while (!empty()) {
      pop_front();
    }
  }

  // Note: true whenever the element is linked through this hook member —
  // which list instance linked it is not recorded (same contract as before;
  // the owner pointer was always the element itself when linked).
  bool contains(const T* elem) const { return (elem->*Hook).linked(); }

  // Successor / predecessor of a linked element; nullptr at the ends.
  T* next(T* elem) {
    ListHook* n = HookOf(elem)->next_;
    return n == &sentinel_ ? nullptr : Owner(n);
  }
  T* prev(T* elem) {
    ListHook* p = HookOf(elem)->prev_;
    return p == &sentinel_ ? nullptr : Owner(p);
  }
  const T* next(const T* elem) const {
    const ListHook* n = (elem->*Hook).next_;
    return n == &sentinel_ ? nullptr : Owner(n);
  }
  const T* prev(const T* elem) const {
    const ListHook* p = (elem->*Hook).prev_;
    return p == &sentinel_ ? nullptr : Owner(p);
  }

  // Minimal forward iterator so the list works with range-for.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T*;
    using difference_type = std::ptrdiff_t;

    explicit iterator(ListHook* at) : at_(at) {}

    T* operator*() const { return Owner(at_); }
    iterator& operator++() {
      at_ = at_->next_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const iterator& o) const { return at_ == o.at_; }

   private:
    ListHook* at_;
  };

  iterator begin() { return iterator(sentinel_.next_); }
  iterator end() { return iterator(&sentinel_); }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = const T*;
    using difference_type = std::ptrdiff_t;

    explicit const_iterator(const ListHook* at) : at_(at) {}

    const T* operator*() const { return Owner(at_); }
    const_iterator& operator++() {
      at_ = at_->next_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const const_iterator& o) const { return at_ == o.at_; }

   private:
    const ListHook* at_;
  };

  const_iterator begin() const { return const_iterator(sentinel_.next_); }
  const_iterator end() const { return const_iterator(&sentinel_); }

 private:
  static ListHook* HookOf(T* elem) { return &(elem->*Hook); }

  // Byte offset of the hook member inside T.  Applying the member pointer to a
  // probe address is plain offset arithmetic for a non-virtual data member, and
  // the subtraction folds to a compile-time constant.
  static std::ptrdiff_t HookOffset() {
    alignas(T) static char probe_storage[sizeof(T)];
    const T* probe = reinterpret_cast<const T*>(probe_storage);
    return reinterpret_cast<const char*>(&(probe->*Hook)) -
           reinterpret_cast<const char*>(probe);
  }

  static T* Owner(ListHook* h) {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(h) - HookOffset());
  }
  static const T* Owner(const ListHook* h) {
    return reinterpret_cast<const T*>(reinterpret_cast<const char*>(h) - HookOffset());
  }

  void LinkAfter(ListHook* pos, ListHook* h, T* elem) {
    SFS_DCHECK(!h->linked());
    (void)elem;
    h->prev_ = pos;
    h->next_ = pos->next_;
    pos->next_->prev_ = h;
    pos->next_ = h;
    ++size_;
  }

  ListHook sentinel_;
  std::size_t size_ = 0;
};

}  // namespace sfs::common

#endif  // SFS_COMMON_INTRUSIVE_LIST_H_
