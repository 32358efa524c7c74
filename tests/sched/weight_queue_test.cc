// WeightQueue: the descending-weight RunList (run_list.h), its runs of
// equal weight indexed by weight.  Whatever mix of inserts, removals and
// reweights produced it, the list must hold exactly the queued threads in
// descending weight, each run of equal weight in the order its members
// joined it, and the index must name the first member of every run
// (RunList::CheckIndex).

#include "src/sched/weight_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace sfs::sched {
namespace {

using Key = std::pair<double, ThreadId>;  // (-weight, tid), the list order

std::vector<Key> ListKeys(const WeightQueue& q) {
  std::vector<Key> keys;
  for (const Entity* e = q.front(); e != nullptr; e = q.next(e)) {
    keys.push_back(ByWeightDesc::Key(*e));
  }
  return keys;
}

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

// Random inserts, removals and reweights against a std::set reference: the
// queue holds the set's keys, and CheckIndex holds it to descending weight
// and its index to its runs after every op.  Two weight sources: a small
// set, so runs of equal weight grow long and heads hand their role on, and
// random doubles, so almost every weight is a run of its own.  Tids are
// shuffled and sparse.  A removal or reweight takes, in turn, a member inside
// a run, a run's head with members behind it, and a run's sole member, when
// the queue has one; the counts say which it found.
struct Erasures {
  int inner = 0;  // not its run's head: the index does not change
  int head = 0;   // hands the head's role on
  int sole = 0;   // closes the run
};

Erasures RunRandomOps(bool small_weight_set, std::uint64_t seed) {
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
  auto random_weight = [&] {
    return small_weight_set ? small_set[rng.NextBounded(5)] : rng.UniformDouble(0.001, 1000.0);
  };
  WeightQueue q;
  std::set<Key> reference;
  Erasures erasures;
  for (int op = 0; op < 4000; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    // Queued threads by their place in their run: inside it, its head with
    // members behind it, its sole member.
    std::vector<Entity*> by_place[3];
    for (Entity* e = q.front(); e != nullptr; e = q.next(e)) {
      const Entity* before = q.prev(e);
      const Entity* after = q.next(e);
      const bool head = before == nullptr || before->weight() != e->weight();
      const bool last = after == nullptr || after->weight() != e->weight();
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
      e->weight() = random_weight();
      q.Append(e);
      reference.insert(ByWeightDesc::Key(*e));
    } else {
      for (int p = 0; p < 3; ++p) {
        if (std::find(by_place[p].begin(), by_place[p].end(), e) != by_place[p].end()) {
          ++(p == 0 ? erasures.inner : p == 1 ? erasures.head : erasures.sole);
        }
      }
      reference.erase(ByWeightDesc::Key(*e));
      if (rng.Bernoulli(0.4)) {
        q.Erase(e, -e->weight());
      } else {
        q.Erase(e, -e->weight());
        e->weight() = random_weight();
        q.Append(e);
        reference.insert(ByWeightDesc::Key(*e));
      }
    }
    std::vector<Key> keys = ListKeys(q);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, std::vector<Key>(reference.begin(), reference.end())) << where;
    EXPECT_EQ(q.CheckIndex(), "") << where;
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  q.Clear();
  return erasures;
}

TEST(WeightQueuePropertyTest, RandomOpsMatchReferenceSetOnLongTies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Erasures erasures = RunRandomOps(/*small_weight_set=*/true, seed);
    if (HasFailure()) {
      return;
    }
    EXPECT_GT(erasures.inner, 1000) << "seed " << seed;
    EXPECT_GT(erasures.head, 500) << "seed " << seed;
    EXPECT_GT(erasures.sole, 5) << "seed " << seed;
  }
}

TEST(WeightQueuePropertyTest, RandomOpsMatchReferenceSetOnRandomWeights) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Erasures erasures = RunRandomOps(/*small_weight_set=*/false, seed);
    if (HasFailure()) {
      return;
    }
    EXPECT_GT(erasures.sole, 1000) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sfs::sched
