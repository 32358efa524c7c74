// A list of runnable threads in ascending key order, indexed by its runs of
// equal key: the one sorted run queue of this library.
//
// Section 3.1 keeps each runnable thread on sorted queues, and Section 3.2
// names binary search as the fix for their linear insert.  Every sorted
// queue here is a RunList: the descending-weight queue that drives
// readjustment (sched::WeightQueue, keyed by minus the weight), SFS's phi
// classes and SFQ's queue and H-SFS's class members (keyed by start tag), and
// WFQ's queue (keyed by finish tag).  Their keys repeat heavily — integer
// weights, threads of one weight charged in lockstep — so beside the
// intrusive list sits an index with one entry per run of equal key: the key
// and the run's first member, its *head*, in a sorted array.  A run's last
// member is the predecessor of the next run's head, so the index stores
// nothing else, and a walk over the runs reads the array alone.
//
// Filing searches the index (both ends first, then a binary search) and
// either opens a run or joins one: at its back (Append, the weight queue's
// order) or at its tid's place (InsertByTid, the (key, tid) order of every
// other queue).  Erasing checks the predecessor first: when it holds the
// same key, the thread is not its run's head and the index does not change.
// Only a head searches the index, to hand its role on to the next member or
// to close the run.

#ifndef SFS_SCHED_RUN_LIST_H_
#define SFS_SCHED_RUN_LIST_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/common/assert.h"
#include "src/common/intrusive_list.h"
#include "src/sched/entity.h"

namespace sfs::sched {

// The start-tag order of SFS's phi classes, SFQ's queue and H-SFS's class
// members: ascending start tag, then ascending tid (the paper breaks ties
// "arbitrarily"; here they never are), so queue order — and every decision
// that reads it — is a total order.  Their runs ascend by RunKey and file by
// tid.
struct ByStartTagAsc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {e.start_tag(), e.tid}; }
  static double RunKey(const Entity& e) { return e.start_tag(); }
};

// A run of equal keys: the key and the run's first member.  The key sits
// beside the pointer so that a search or a walk over the runs reads no
// entity.
struct Run {
  double key = 0.0;
  Entity* head = nullptr;
};

// The runs, ascending by key, in one array with slack at both ends.
// Opening or closing a run in the front half shifts the entries before it,
// in the back half those after it, so the front (SFS: arrivals and wakeups
// land at v, a charge takes its thread out of the front run) and the back
// (where the charge files it again) both change in O(1).  When the side to
// shift has no slack left the entries are re-centred, growing the array to
// twice the runs, so shifts stay amortized O(1) per change at either end; an
// emptied index keeps its array for its next use.  The first kInline slots
// live in the index itself, so a list that never held more runs (a
// mostly-blocked shard's phi class) reads no line beyond its own.
class RunIndex {
 public:
  std::size_t size() const { return last_ - first_; }
  Run& operator[](std::size_t pos) {
    SFS_DCHECK(pos < size());
    return data()[first_ + pos];
  }
  const Run& operator[](std::size_t pos) const {
    SFS_DCHECK(pos < size());
    return data()[first_ + pos];
  }

  // Position of the first run whose key is not below `key`: probes both
  // ends, then binary-searches the runs between, adding the keys it reads
  // to `*probes` unless that is nullptr.  Most searches end at an end.
  std::size_t Find(double key, std::int64_t* probes) const {
    const std::size_t n = size();
    if (n == 0 || key <= (*this)[0].key) {
      Count(probes, n == 0 ? 0 : 1);
      return 0;
    }
    if (key >= (*this)[n - 1].key) {
      Count(probes, 2);
      return key == (*this)[n - 1].key ? n - 1 : n;
    }
    return FindInner(key, probes);
  }

  // Opening or closing a run at either end (most changes) moves nothing.
  void Insert(std::size_t pos, Run run) {
    if (pos == size() && last_ < capacity_) {
      data()[last_++] = run;
    } else if (pos == 0 && first_ > 0) {
      data()[--first_] = run;
    } else {
      InsertShifting(pos, run);
    }
  }
  void Erase(std::size_t pos) {
    if (pos == 0) {
      ++first_;
    } else if (pos + 1 == size()) {
      --last_;
    } else {
      EraseShifting(pos);
    }
  }
  void Clear() { first_ = last_ = capacity_ / 2; }

 private:
  static constexpr std::uint32_t kInline = 4;

  Run* data() { return heap_ != nullptr ? heap_.get() : inline_; }
  const Run* data() const { return heap_ != nullptr ? heap_.get() : inline_; }
  static void Count(std::int64_t* probes, std::int64_t n) {
    if (probes != nullptr) {
      *probes += n;
    }
  }
  // Find between the two ends, which it probed.
  std::size_t FindInner(double key, std::int64_t* probes) const;
  void InsertShifting(std::size_t pos, Run run);
  void EraseShifting(std::size_t pos);
  // Moves the entries to the middle of an array with room for `runs`
  // entries and as much slack again.
  void Recenter(std::size_t runs);

  std::unique_ptr<Run[]> heap_;  // the slots once they outgrow inline_
  std::uint32_t capacity_ = kInline;
  std::uint32_t first_ = kInline / 2;  // the entries are data()[first_, last_)
  std::uint32_t last_ = kInline / 2;
  Run inline_[kInline];
};

// The list and its index.  `KeyOf::RunKey(e)` is e's key; the list ascends
// by it.  The caller passes the key a thread was filed with to Erase, so
// that thread's own key may already have changed (a reweight); every other
// member must still hold the key it was filed with, since Erase reads its
// predecessor's (a charge unfiles its thread before it moves the tags).
template <common::ListHook Entity::*Hook, typename KeyOf>
class RunList {
 public:
  static constexpr std::size_t kNoRun = std::numeric_limits<std::size_t>::max();

  bool empty() const { return list_.empty(); }
  std::size_t size() const { return list_.size(); }
  Entity* front() { return list_.front(); }
  const Entity* front() const { return list_.front(); }
  Entity* back() { return list_.back(); }
  bool contains(const Entity* e) const { return list_.contains(e); }
  Entity* next(Entity* e) { return list_.next(e); }
  const Entity* next(const Entity* e) const { return list_.next(e); }
  Entity* prev(Entity* e) { return list_.prev(e); }

  std::size_t runs() const { return runs_.size(); }
  Run& run(std::size_t pos) { return runs_[pos]; }
  const Run& run(std::size_t pos) const { return runs_[pos]; }
  // The member after run `pos`'s last one: the next run's head, or nullptr.
  Entity* RunEnd(std::size_t pos) const {
    return pos + 1 < runs_.size() ? runs_[pos + 1].head : nullptr;
  }

  // Where a filing put its thread: the position of its run, and whether the
  // thread opened that run.  Filing and erasing add the run keys their
  // search reads to `*probes` unless that is nullptr.
  struct Place {
    std::size_t pos;
    bool opens;
  };

  // Links `e` at the back of its key's run.
  Place Append(Entity* e, std::int64_t* probes = nullptr) {
    const Place place = FindOrOpen(e, probes);
    if (!place.opens) {
      LinkBefore(RunEnd(place.pos), e);
    }
    return place;
  }

  // Links `e` into its key's run at its tid's place (members of a run filed
  // this way ascend by tid), walking in from the end with the nearer tid.
  Place InsertByTid(Entity* e, std::int64_t* probes = nullptr) {
    const Place place = FindOrOpen(e, probes);
    if (place.opens) {
      return place;
    }
    Run& run = runs_[place.pos];
    Entity* const end = RunEnd(place.pos);
    Entity* cur = end != nullptr ? list_.prev(end) : list_.back();  // the run's tail
    if (std::int64_t{e->tid} - run.head->tid < std::int64_t{cur->tid} - e->tid) {
      cur = run.head;
      while (cur != end && cur->tid < e->tid) {
        cur = list_.next(cur);
      }
      LinkBefore(cur, e);
    } else {
      while (cur != run.head && e->tid < cur->tid) {
        cur = list_.prev(cur);
      }
      if (e->tid < cur->tid) {
        list_.insert_before(cur, e);  // cur is the head
      } else {
        list_.insert_after(cur, e);
      }
    }
    if (e->tid < run.head->tid) {
      run.head = e;  // precedes the old head: e heads the run now
    }
    return place;
  }

  // Unlinks `e`, filed with key `key`.  Returns the position of the run it
  // closed, or kNoRun.
  std::size_t Erase(Entity* e, double key, std::int64_t* probes = nullptr) {
    if (const Entity* before = list_.prev(e); before != nullptr && KeyOf::RunKey(*before) == key) {
      list_.erase(e);  // not its run's head: the index does not change
      return kNoRun;
    }
    const std::size_t pos = runs_.Find(key, probes);
    SFS_DCHECK(pos < runs_.size() && runs_[pos].head == e);
    Entity* const after = list_.next(e);
    list_.erase(e);
    if (after != RunEnd(pos)) {
      runs_[pos].head = after;  // hand the head's role on
      return kNoRun;
    }
    runs_.Erase(pos);
    return pos;
  }

  void Clear() {
    list_.clear();
    runs_.Clear();
  }

  // Audit for tests, O(size): the list ascends by key, and the index holds
  // exactly its runs, in order, each entry naming its run's first member
  // and that member's key.  Returns an empty string or the first violation.
  std::string CheckIndex() const {
    const auto at = [](const char* what, ThreadId tid) {
      return std::string(what) + " " + std::to_string(tid);
    };
    std::size_t pos = 0;  // index entries matched so far
    const Entity* prev = nullptr;
    for (const Entity* e : list_) {
      const double key = KeyOf::RunKey(*e);
      if (prev != nullptr && key < KeyOf::RunKey(*prev)) {
        return at("run list out of key order at thread", e->tid);
      }
      if (prev == nullptr || key != KeyOf::RunKey(*prev)) {
        if (pos == runs_.size() || runs_[pos].head != e || runs_[pos].key != key) {
          return at("run index skips, misorders or mistags the run opened by thread", e->tid);
        }
        ++pos;
      }
      prev = e;
    }
    if (pos != runs_.size()) {
      return "the run list holds " + std::to_string(pos) + " runs, its index " +
             std::to_string(runs_.size());
    }
    return {};
  }

 private:
  // Finds e's run, or opens one for e, in front of the next run, when no
  // member holds its key.
  Place FindOrOpen(Entity* e, std::int64_t* probes) {
    const double key = KeyOf::RunKey(*e);
    const std::size_t pos = runs_.Find(key, probes);
    if (pos < runs_.size() && runs_[pos].key == key) {
      return {pos, false};
    }
    LinkBefore(pos == runs_.size() ? nullptr : runs_[pos].head, e);
    runs_.Insert(pos, Run{key, e});
    return {pos, true};
  }
  // Links `e` before `at`, or last when `at` is nullptr.
  void LinkBefore(Entity* at, Entity* e) {
    if (at == nullptr) {
      list_.push_back(e);
    } else {
      list_.insert_before(at, e);
    }
  }

  common::IntrusiveList<Entity, Hook> list_;
  RunIndex runs_;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_RUN_LIST_H_
