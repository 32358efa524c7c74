// Hierarchical timing wheel: the engine's O(1) event queue.
//
// A binary-heap event queue pays O(log n) per push/pop with n = every pending
// event (one wakeup per blocked thread, one timer per processor), and each heap
// operation percolates through ~log n cache lines of a large array.  The wheel
// replaces that with hashed slots: eight levels of 256 slots, level k spanning
// 2^(8k) ticks per slot, so any 64-bit timestamp maps to exactly one slot in
// O(1).  Per-level occupancy bitmaps locate the next nonempty slot with a few
// word scans instead of walking empty ticks, and events migrate ("cascade") at
// most kLevels-1 times toward level 0 as time approaches, keeping amortized
// cost per event constant.
//
// Ordering contract (what makes it substitutable for a (time, seq) min-heap):
// pops are globally ordered by time, FIFO among equal times.  Each slot chains
// events in arrival order; a level-0 slot spans exactly one tick, cascades
// splice in arrival order, and an event can only land in a slot *below* the
// level where an older same-time event waits after that older event has
// already cascaded past it (current_ never enters an uncascaded slot).  So
// FIFO-per-slot is FIFO-per-tick, with no sequence numbers or sorting.
//
// Memory: nodes come from an internal free list backed by chunked storage, so
// a Push/Pop steady state performs zero allocations.  Reserve() pre-sizes the
// pool.  Times must be non-negative and (once popped) non-decreasing: pushing
// an event earlier than the last popped time is a contract violation (checked).

#ifndef SFS_COMMON_TIMING_WHEEL_H_
#define SFS_COMMON_TIMING_WHEEL_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/assert.h"

namespace sfs::common {

template <typename T>
class TimingWheel {
 public:
  TimingWheel() = default;

  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Pre-sizes the node pool to hold at least `n` pending events.
  void Reserve(std::size_t n) {
    while (pooled_ < n) {
      GrowPool();
    }
  }

  // Enqueues `value` at `time`.  `time` must be >= 0 and >= the time of the
  // last drained tick (the discrete-event invariant: no event schedules work
  // in the past).
  void Push(std::int64_t time, const T& value) {
    SFS_DCHECK(time >= 0);
    const auto t = static_cast<std::uint64_t>(time);
    SFS_DCHECK(t >= current_);
    Node* node = AllocNode();
    node->value = value;
    node->time = t;
    node->next = nullptr;
    const int level = LevelFor(t);
    Slot& slot = slots_[SlotIndex(level, t)];
    if (slot.head == nullptr) {
      slot.head = node;
      MarkOccupied(level, SlotInLevel(level, t));
    } else {
      slot.tail->next = node;
    }
    slot.tail = node;
    ++size_;
  }

  // Finds the earliest pending event time, provided it is <= `until`.  Returns
  // false (leaving internal time untouched beyond `until`) when the queue is
  // empty or the next event lies beyond the bound, so later pushes at times
  // > `until` remain legal.  Cascades higher-level slots toward level 0 as a
  // side effect; amortized O(1) per event over a run.
  bool NextTime(std::int64_t until, std::int64_t* time) {
    SFS_DCHECK(until >= 0);
    const auto bound = static_cast<std::uint64_t>(until);
    while (size_ > 0) {
      // Fast path: the slot for the current tick still has events (same-tick
      // batch in flight, including events pushed by the handlers themselves).
      if (slots_[SlotIndex(0, current_)].head != nullptr) {
        SFS_DCHECK(current_ <= bound);
        *time = static_cast<std::int64_t>(current_);
        return true;
      }
      const int idx0 = FirstOccupied(0);
      if (idx0 >= 0) {
        const std::uint64_t t = (current_ & ~std::uint64_t{kSlotMask}) |
                                static_cast<std::uint64_t>(idx0);
        if (t > bound) {
          return false;
        }
        current_ = t;
        *time = static_cast<std::int64_t>(t);
        return true;
      }
      // Level 0 exhausted: cascade the earliest occupied higher-level slot
      // down and retry.  Advancing current_ to the slot's window start is safe
      // because every pending event in (or above) that window is >= it.
      int level = 1;
      int idx = -1;
      for (; level < kLevels; ++level) {
        idx = FirstOccupied(level);
        if (idx >= 0) {
          break;
        }
      }
      SFS_DCHECK(level < kLevels);  // size_ > 0 guarantees an occupied slot
      const int shift = kSlotBits * level;
      const std::uint64_t window_start =
          (ClearLowBits(current_, shift + kSlotBits)) |
          (static_cast<std::uint64_t>(idx) << shift);
      if (window_start > bound) {
        return false;
      }
      SFS_DCHECK(window_start > current_);
      current_ = window_start;
      Cascade(level, idx);
    }
    return false;
  }

  // Dequeues and invokes `fn(value)` for every event at the tick NextTime()
  // just reported, in FIFO order, returning the number drained.  Only valid
  // immediately after a successful NextTime().  Detaching the whole level-0
  // chain up front lets the hot loop walk a linked list with next-node
  // prefetch instead of re-deriving the slot per event; the outer loop
  // re-checks the slot because `fn` may push new events at this same tick:
  // they run in this same drain, after every event already pending at it.
  template <typename Fn>
  std::size_t DrainCurrent(Fn&& fn) {
    Slot& slot = slots_[SlotIndex(0, current_)];
    std::size_t drained = 0;
    while (slot.head != nullptr) {
      Node* node = slot.head;
      slot.head = nullptr;
      slot.tail = nullptr;
      ClearOccupied(0, SlotInLevel(0, current_));
      while (node != nullptr) {
        Node* next = node->next;
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(next);
#endif
        SFS_DCHECK(node->time == current_);
        --size_;
        ++drained;
        fn(node->value);
        FreeNode(node);
        node = next;
      }
    }
    return drained;
  }

 private:
  static constexpr int kSlotBits = 8;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;
  static constexpr int kSlotMask = kSlotsPerLevel - 1;
  static constexpr int kLevels = 8;  // 8 levels x 8 bits = full 64-bit range
  static constexpr int kBitmapWords = kSlotsPerLevel / 64;
  static constexpr std::size_t kChunkSize = 256;

  struct Node {
    T value;
    std::uint64_t time = 0;
    Node* next = nullptr;
  };

  struct Slot {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  static std::uint64_t ClearLowBits(std::uint64_t v, int bits) {
    return bits >= 64 ? 0 : (v >> bits) << bits;
  }

  // Level of the slot for time `t`: the byte position of the highest bit in
  // which `t` differs from current_ (level 0 when equal).  By construction a
  // pushed slot is never the slot current_ itself occupies on levels >= 1.
  int LevelFor(std::uint64_t t) const {
    const std::uint64_t diff = t ^ current_;
    if (diff == 0) {
      return 0;
    }
    return (63 - std::countl_zero(diff)) / kSlotBits;
  }

  static int SlotInLevel(int level, std::uint64_t t) {
    return static_cast<int>((t >> (kSlotBits * level)) & kSlotMask);
  }

  static int SlotIndex(int level, std::uint64_t t) {
    return level * kSlotsPerLevel + SlotInLevel(level, t);
  }

  void MarkOccupied(int level, int slot) {
    occupied_[level][slot / 64] |= std::uint64_t{1} << (slot % 64);
  }

  void ClearOccupied(int level, int slot) {
    occupied_[level][slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }

  // Lowest occupied slot index in `level`, or -1.  Past slots are always empty
  // (events are popped in time order), so no lower bound is needed.
  int FirstOccupied(int level) const {
    for (int w = 0; w < kBitmapWords; ++w) {
      if (occupied_[level][w] != 0) {
        return w * 64 + std::countr_zero(occupied_[level][w]);
      }
    }
    return -1;
  }

  // Re-files every event of (level, idx) against the advanced current_; each
  // lands on a strictly lower level.  Splicing in chain order preserves the
  // FIFO-among-equal-times contract.
  void Cascade(int level, int idx) {
    Slot& slot = slots_[level * kSlotsPerLevel + idx];
    Node* node = slot.head;
    slot.head = nullptr;
    slot.tail = nullptr;
    ClearOccupied(level, idx);
    while (node != nullptr) {
      Node* next = node->next;
      const int new_level = LevelFor(node->time);
      SFS_DCHECK(new_level < level);
      Slot& dest = slots_[SlotIndex(new_level, node->time)];
      node->next = nullptr;
      if (dest.head == nullptr) {
        dest.head = node;
        MarkOccupied(new_level, SlotInLevel(new_level, node->time));
      } else {
        dest.tail->next = node;
      }
      dest.tail = node;
      node = next;
    }
  }

  Node* AllocNode() {
    if (free_ == nullptr) {
      GrowPool();
    }
    Node* node = free_;
    free_ = node->next;
    return node;
  }

  void FreeNode(Node* node) {
    node->next = free_;
    free_ = node;
  }

  void GrowPool() {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    Node* chunk = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkSize; ++i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
    pooled_ += kChunkSize;
  }

  std::uint64_t current_ = 0;  // time of the last popped (or skipped-to) tick
  std::size_t size_ = 0;
  std::size_t pooled_ = 0;
  Slot slots_[kLevels * kSlotsPerLevel] = {};
  std::uint64_t occupied_[kLevels][kBitmapWords] = {};
  Node* free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> chunks_;
};

}  // namespace sfs::common

#endif  // SFS_COMMON_TIMING_WHEEL_H_
