// WeightQueue: the descending (weight, tid) list with its per-distinct-weight
// bucket index.  The list must be exactly the order a sorted insert would
// build, whatever mix of inserts, removals and reweights produced it, and the
// index must name the first and last member of every run of equal weight.

#include "src/sched/weight_queue.h"

#include <gtest/gtest.h>

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

TEST(WeightQueueTest, OrdersByDescendingWeightThenTid) {
  Pool pool({5, 1, 9, 3, 7});
  const double weights[] = {2.0, 2.0, 1.0, 4.0, 2.0};
  WeightQueue q;
  for (std::size_t i = 0; i < pool.entities.size(); ++i) {
    pool.entities[i]->weight() = weights[i];
    q.Insert(pool.entities[i].get());
  }
  const std::vector<Key> expected = {{-4.0, 3}, {-2.0, 1}, {-2.0, 5}, {-2.0, 7}, {-1.0, 9}};
  EXPECT_EQ(ListKeys(q), expected);
  EXPECT_EQ(q.CheckIndex(), "");

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

// Random inserts, removals and reweights against a std::set reference.  Two
// weight sources: a small set, so runs of equal weight grow long and the
// in-run tid walk and bucket hand-offs do the work, and random doubles, so
// almost every weight is a bucket of its own.  Tids are shuffled and sparse,
// so members land at both ends and in the middle of their runs.
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
    ASSERT_EQ(ListKeys(q), std::vector<Key>(reference.begin(), reference.end())) << where;
    ASSERT_EQ(q.CheckIndex(), "") << where;
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
