// WeightQueue: the descending-weight list with its per-distinct-weight
// bucket index.  Whatever mix of inserts, removals and reweights produced it,
// the list must hold exactly the queued threads in descending weight, each
// run of equal weight in the order its members joined it, the index must
// name the first and last member of every run, and ForLastK must visit the
// last k threads of the (-weight, tid) order.

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

// The last `k` keys ForLastK visits, sorted.
std::vector<Key> LastK(WeightQueue& q, std::size_t k) {
  std::vector<Key> keys;
  q.ForLastK(k, [&keys](Entity* e) { keys.push_back(ByWeightDesc::Key(*e)); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(WeightQueueTest, OrdersByDescendingWeightAppendingToRuns) {
  Pool pool({5, 1, 9, 3, 7});
  const double weights[] = {2.0, 2.0, 1.0, 4.0, 2.0};
  WeightQueue q;
  for (std::size_t i = 0; i < pool.entities.size(); ++i) {
    pool.entities[i]->weight() = weights[i];
    q.Insert(pool.entities[i].get());
  }
  // Each thread joins its run at the back, whatever its tid.
  const std::vector<Key> expected = {{-4.0, 3}, {-2.0, 5}, {-2.0, 1}, {-2.0, 7}, {-1.0, 9}};
  EXPECT_EQ(ListKeys(q), expected);
  EXPECT_EQ(q.CheckIndex(), "");
  // The last k in (-weight, tid) order: the weight-2 run's highest tids.
  EXPECT_EQ(LastK(q, 1), (std::vector<Key>{{-1.0, 9}}));
  EXPECT_EQ(LastK(q, 3), (std::vector<Key>{{-2.0, 5}, {-2.0, 7}, {-1.0, 9}}));
  EXPECT_EQ(LastK(q, 9), (std::vector<Key>{{-4.0, 3}, {-2.0, 1}, {-2.0, 5}, {-2.0, 7}, {-1.0, 9}}));

  // Reweight the middle of the weight-2 run to a new heaviest weight, then
  // empty the weight-4 bucket.
  Entity* five = pool.entities[0].get();
  five->weight() = 8.0;
  q.Reposition(five, 2.0);
  EXPECT_EQ(q.front(), five);
  EXPECT_EQ(q.CheckIndex(), "");
  q.Remove(pool.entities[3].get());
  const std::vector<Key> after = {{-8.0, 5}, {-2.0, 1}, {-2.0, 7}, {-1.0, 9}};
  EXPECT_EQ(ListKeys(q), after);
  EXPECT_EQ(q.CheckIndex(), "");
  q.Clear();
  EXPECT_EQ(q.size(), 0U);
  EXPECT_EQ(q.CheckIndex(), "");
}

// Random inserts, removals and reweights against a std::set reference: the
// queue holds the set's keys (CheckIndex holds it to descending weight and
// its buckets to its runs), and ForLastK visits the set's last k, also for
// a k whose entries it kept from before the op.  Two weight sources: a small
// set, so runs of equal weight grow long and bucket hand-offs and
// ForLastK's partial runs do the work, and random doubles, so
// almost every weight is a bucket of its own.  Tids are shuffled and sparse,
// so removals leave from both ends and the middle of their runs.
void RunRandomOps(bool small_weight_set, std::uint64_t seed) {
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
  std::size_t k = 0;
  for (int op = 0; op < 4000; ++op) {
    Entity* e = pool.entities[rng.NextBounded(pool.entities.size())].get();
    const bool queued = q.contains(e);
    if (!queued) {
      e->weight() = random_weight();
      q.Insert(e);
      reference.insert(ByWeightDesc::Key(*e));
    } else if (rng.Bernoulli(0.4)) {
      reference.erase(ByWeightDesc::Key(*e));
      q.Remove(e);
    } else {
      reference.erase(ByWeightDesc::Key(*e));
      const Weight old_weight = e->weight();
      // Now and then a reweight to the weight it already has.
      e->weight() = rng.Bernoulli(0.1) ? old_weight : random_weight();
      q.Reposition(e, old_weight);
      reference.insert(ByWeightDesc::Key(*e));
    }
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    std::vector<Key> keys = ListKeys(q);
    std::sort(keys.begin(), keys.end());
    ASSERT_EQ(keys, std::vector<Key>(reference.begin(), reference.end())) << where;
    ASSERT_EQ(q.CheckIndex(), "") << where;
    const auto last_k = [&reference](std::size_t k) {
      std::vector<Key> last(reference.begin(), reference.end());
      last.erase(last.begin(), last.end() - static_cast<std::ptrdiff_t>(std::min(k, last.size())));
      return last;
    };
    // The previous op's k once more: the change since must not leave its
    // entries stale.  Then a new k, twice: the second call reuses them.
    ASSERT_EQ(LastK(q, k), last_k(k)) << where << " previous k " << k;
    k = rng.NextBounded(reference.size() + 2);
    ASSERT_EQ(LastK(q, k), last_k(k)) << where << " k " << k;
    ASSERT_EQ(LastK(q, k), last_k(k)) << where << " k " << k << ", again";
  }
  q.Clear();
}

TEST(WeightQueuePropertyTest, RandomOpsMatchReferenceSetOnLongTies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunRandomOps(/*small_weight_set=*/true, seed);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(WeightQueuePropertyTest, RandomOpsMatchReferenceSetOnRandomWeights) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunRandomOps(/*small_weight_set=*/false, seed);
    if (HasFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace sfs::sched
