// WeightQueue: the descending-weight RunList (run_list.h), its runs of
// equal weight indexed by weight.  Whatever mix of inserts, removals and
// reweights produced it, the list must hold exactly the queued threads in
// descending weight, each run of equal weight in the order its members
// joined it, and the index must name the first member of every run
// (RunList::CheckIndex).  The random-op property test also drives a
// start-tag RunList filed with InsertByTid, the filing of SFS's phi classes,
// SFQ's and WFQ's queues and H-SFS's class members: its list must be in
// exact (key, tid) order.

#include "src/sched/weight_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/run_list.h"

namespace sfs::sched {
namespace {

using Key = std::pair<double, ThreadId>;  // (run key, tid), the reference order

template <typename List, typename KeyOf>
std::vector<Key> ListKeys(const List& q) {
  std::vector<Key> keys;
  for (const Entity* e = q.front(); e != nullptr; e = q.next(e)) {
    keys.push_back({KeyOf::RunKey(*e), e->tid});
  }
  return keys;
}

std::vector<Key> ListKeys(const WeightQueue& q) { return ListKeys<WeightQueue, ByWeightDesc>(q); }

struct Pool {
  explicit Pool(const std::vector<ThreadId>& tids) {
    for (const ThreadId tid : tids) {
      entities.push_back(std::make_unique<Entity>());
      entities.back()->tid = tid;
    }
  }
  std::vector<std::unique_ptr<Entity>> entities;
};

TEST(WeightQueueTest, OrdersByDescendingWeightAppendingToRuns) {
  Pool pool({5, 1, 9, 3, 7});
  const double weights[] = {2.0, 2.0, 1.0, 4.0, 2.0};
  WeightQueue q;
  for (std::size_t i = 0; i < pool.entities.size(); ++i) {
    pool.entities[i]->weight() = weights[i];
    q.Append(pool.entities[i].get());
  }
  // Each thread joins its run at the back, whatever its tid.
  const std::vector<Key> expected = {{-4.0, 3}, {-2.0, 5}, {-2.0, 1}, {-2.0, 7}, {-1.0, 9}};
  EXPECT_EQ(ListKeys(q), expected);
  EXPECT_EQ(q.CheckIndex(), "");
  EXPECT_EQ(q.runs(), 3U);

  // Reweight the head of the weight-2 run to a new heaviest weight, then
  // close the weight-4 run.
  Entity* five = pool.entities[0].get();
  five->weight() = 8.0;
  q.Erase(five, -2.0);
  q.Append(five);
  EXPECT_EQ(q.front(), five);
  EXPECT_EQ(q.CheckIndex(), "");
  q.Erase(pool.entities[3].get(), -4.0);
  const std::vector<Key> after = {{-8.0, 5}, {-2.0, 1}, {-2.0, 7}, {-1.0, 9}};
  EXPECT_EQ(ListKeys(q), after);
  EXPECT_EQ(q.CheckIndex(), "");
  q.Clear();
  EXPECT_EQ(q.size(), 0U);
  EXPECT_EQ(q.CheckIndex(), "");
}

// Random inserts, removals and rekeys against a std::set reference: the
// list holds the set's keys, and CheckIndex holds it to key order and its
// index to its runs after every op.  Two filings: the weight queue's Append
// (its runs keep joining order, so only the sorted keys must match) and a
// start-tag list's InsertByTid (its list must match the set in order).  Two
// key sources: a small set, so runs of equal key grow long and heads hand
// their role on, and random doubles, so almost every key is a run of its
// own.  Tids are shuffled and sparse.  A removal or rekey takes, in turn, a
// member inside a run, a run's head with members behind it, and a run's
// sole member, when the list has one; the counts say which it found, and,
// for InsertByTid, from which end of its run a joining thread walked and
// whether it became the run's new head.
struct Counts {
  int inner = 0;  // erased, not its run's head: the index does not change
  int head = 0;   // erased, hands the head's role on
  int sole = 0;   // erased, closes the run
  int from_head = 0;  // InsertByTid walked in from the run's head
  int from_tail = 0;  // InsertByTid walked in from the run's tail
  int new_head = 0;   // InsertByTid put its thread before the run's head
};

// The weight queue: filed by Append, keyed by minus the weight.
struct WeightFiling {
  using List = WeightQueue;
  using KeyOf = ByWeightDesc;
  static constexpr bool kByTid = false;
  static double& Field(Entity& e) { return e.weight(); }
  static void File(List& q, Entity* e, Counts&) { q.Append(e); }
};

// A start-tag list filed by InsertByTid, which walks into a run from the end
// whose tid is nearer.
struct StartTagFiling {
  using List = RunList<&Entity::by_queue, ByStartTagAsc>;
  using KeyOf = ByStartTagAsc;
  static constexpr bool kByTid = true;
  static double& Field(Entity& e) { return e.start_tag(); }
  static void File(List& q, Entity* e, Counts& counts) {
    for (std::size_t pos = 0; pos < q.runs(); ++pos) {
      if (q.run(pos).key == e->start_tag()) {
        const Entity* head = q.run(pos).head;
        const Entity* tail = q.RunEnd(pos) != nullptr ? q.prev(q.RunEnd(pos)) : q.back();
        const bool from_head = e->tid - head->tid < tail->tid - e->tid;
        ++(from_head ? counts.from_head : counts.from_tail);
        counts.new_head += e->tid < head->tid ? 1 : 0;
      }
    }
    q.InsertByTid(e);
  }
};

template <typename Filing>
Counts RunRandomOps(bool small_key_set, std::uint64_t seed) {
  using KeyOf = typename Filing::KeyOf;
  common::Rng rng(seed);
  std::vector<ThreadId> tids;
  for (ThreadId i = 0; i < 96; ++i) {
    tids.push_back(i * 7 + static_cast<ThreadId>(rng.UniformInt(0, 6)));
  }
  for (std::size_t i = tids.size(); i > 1; --i) {
    std::swap(tids[i - 1], tids[rng.NextBounded(i)]);
  }
  Pool pool(tids);
  const double small_set[] = {1.0, 2.0, 3.0, 0.5, 100.0};
  auto random_key = [&] {
    return small_key_set ? small_set[rng.NextBounded(5)] : rng.UniformDouble(0.001, 1000.0);
  };
  auto key_of = [](const Entity& e) { return Key{KeyOf::RunKey(e), e.tid}; };
  typename Filing::List q;
  std::set<Key> reference;
  Counts counts;
  for (int op = 0; op < 4000; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    // Queued threads by their place in their run: inside it, its head with
    // members behind it, its sole member.
    std::vector<Entity*> by_place[3];
    for (Entity* e = q.front(); e != nullptr; e = q.next(e)) {
      const Entity* before = q.prev(e);
      const Entity* after = q.next(e);
      const bool head = before == nullptr || KeyOf::RunKey(*before) != KeyOf::RunKey(*e);
      const bool last = after == nullptr || KeyOf::RunKey(*after) != KeyOf::RunKey(*e);
      by_place[head ? (last ? 2 : 1) : 0].push_back(e);
    }
    Entity* e = pool.entities[rng.NextBounded(pool.entities.size())].get();
    if (rng.Bernoulli(0.6)) {
      const std::vector<Entity*>& wanted = by_place[op % 3];
      if (!wanted.empty()) {
        e = wanted[rng.NextBounded(wanted.size())];
      }
    }
    if (!q.contains(e)) {
      Filing::Field(*e) = random_key();
      Filing::File(q, e, counts);
      reference.insert(key_of(*e));
    } else {
      for (int p = 0; p < 3; ++p) {
        if (std::find(by_place[p].begin(), by_place[p].end(), e) != by_place[p].end()) {
          ++(p == 0 ? counts.inner : p == 1 ? counts.head : counts.sole);
        }
      }
      reference.erase(key_of(*e));
      q.Erase(e, KeyOf::RunKey(*e));
      if (!rng.Bernoulli(0.4)) {
        Filing::Field(*e) = random_key();
        Filing::File(q, e, counts);
        reference.insert(key_of(*e));
      }
    }
    std::vector<Key> keys = ListKeys<typename Filing::List, KeyOf>(q);
    if (!Filing::kByTid) {
      std::sort(keys.begin(), keys.end());
    }
    EXPECT_EQ(keys, std::vector<Key>(reference.begin(), reference.end())) << where;
    EXPECT_EQ(q.CheckIndex(), "") << where;
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  q.Clear();
  return counts;
}

TEST(WeightQueuePropertyTest, RandomOpsMatchReferenceSetOnLongTies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Counts weight = RunRandomOps<WeightFiling>(/*small_key_set=*/true, seed);
    const Counts start = RunRandomOps<StartTagFiling>(/*small_key_set=*/true, seed);
    if (HasFailure()) {
      return;
    }
    for (const Counts& counts : {weight, start}) {
      EXPECT_GT(counts.inner, 1000) << "seed " << seed;
      EXPECT_GT(counts.head, 500) << "seed " << seed;
      EXPECT_GT(counts.sole, 5) << "seed " << seed;
    }
    EXPECT_GT(start.from_head, 1000) << "seed " << seed;
    EXPECT_GT(start.from_tail, 500) << "seed " << seed;
    EXPECT_GT(start.new_head, 300) << "seed " << seed;
  }
}

TEST(WeightQueuePropertyTest, RandomOpsMatchReferenceSetOnRandomWeights) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Counts counts = RunRandomOps<WeightFiling>(/*small_key_set=*/false, seed);
    if (HasFailure()) {
      return;
    }
    EXPECT_GT(counts.sole, 1000) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sfs::sched
