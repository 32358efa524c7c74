// Unit and property tests for the sorted run-queue container (Section 3.1).

#include "src/common/sorted_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/common/rng.h"

namespace sfs::common {
namespace {

struct Item {
  Item() = default;
  Item(double k, int i) : key(k), id(i) {}

  double key = 0.0;
  int id = 0;
  ListHook hook;
};

struct ByKey {
  static double Key(const Item& item) { return item.key; }
};

using Queue = SortedList<Item, &Item::hook, ByKey>;

std::vector<int> Ids(Queue& q) {
  std::vector<int> ids;
  for (Item* it = q.front(); it != nullptr; it = q.next(it)) {
    ids.push_back(it->id);
  }
  return ids;
}

// True iff the keys are non-decreasing front to back.
bool IsSorted(Queue& q) {
  for (Item* it = q.front(); it != nullptr && q.next(it) != nullptr; it = q.next(it)) {
    if (q.next(it)->key < it->key) {
      return false;
    }
  }
  return true;
}

TEST(SortedListTest, InsertKeepsAscendingOrder) {
  Queue q;
  Item a{3.0, 1}, b{1.0, 2}, c{2.0, 3};
  q.Insert(&a);
  q.Insert(&b);
  q.Insert(&c);
  EXPECT_EQ(Ids(q), (std::vector<int>{2, 3, 1}));
  EXPECT_TRUE(IsSorted(q));
  q.Remove(&b);  // removal is by link: the front, then the rest
  EXPECT_EQ(Ids(q), (std::vector<int>{3, 1}));
  q.Remove(&a);
  q.Remove(&c);
  EXPECT_TRUE(q.empty());
}

TEST(SortedListTest, TiesKeepFifoOrder) {
  Queue q;
  Item a{1.0, 1}, b{1.0, 2}, c{1.0, 3};
  q.Insert(&a);
  q.Insert(&b);
  q.Insert(&c);
  EXPECT_EQ(Ids(q), (std::vector<int>{1, 2, 3}));
  q.Clear();
}

TEST(SortedListTest, InsertFromBackEquivalentOrder) {
  Queue q;
  Item a{5.0, 1}, b{2.0, 2}, c{8.0, 3};
  q.InsertFromBack(&a);
  q.InsertFromBack(&b);
  q.InsertFromBack(&c);
  EXPECT_EQ(Ids(q), (std::vector<int>{2, 1, 3}));
  EXPECT_TRUE(IsSorted(q));
  q.Clear();
}

TEST(SortedListTest, InsertFromBackTieParityWithInsert) {
  // Sfq::OnCharge re-queues via InsertFromBack while admissions use Insert;
  // determinism requires both paths to file an equal key *after* the existing
  // ties (FIFO among ties), i.e. the back-scan must stop at the last equal
  // element and insert after it, never before.
  Queue q;
  Item a{1.0, 1}, b{1.0, 2}, c{1.0, 3};
  q.Insert(&a);
  q.Insert(&b);
  q.InsertFromBack(&c);  // equal key via the back path: after a and b
  EXPECT_EQ(Ids(q), (std::vector<int>{1, 2, 3}));
  q.Clear();

  // Equal keys at the very front: the back-scan walks past larger keys and
  // must still land after the existing equals.
  Item d{1.0, 1}, e{1.0, 2}, f{5.0, 3}, g{1.0, 4};
  q.Insert(&d);
  q.Insert(&e);
  q.Insert(&f);
  q.InsertFromBack(&g);
  EXPECT_EQ(Ids(q), (std::vector<int>{1, 2, 4, 3}));
  q.Clear();
}

TEST(SortedListTest, InsertAndInsertFromBackInterleavedIdenticalOrder) {
  // The same mixed sequence of duplicate keys through both insertion paths
  // must produce element-for-element identical lists.
  const double keys[] = {2.0, 1.0, 2.0, 3.0, 2.0, 1.0, 3.0, 2.0};
  std::vector<Item> front_items(std::size(keys));
  std::vector<Item> back_items(std::size(keys));
  Queue via_front;
  Queue via_back;
  for (std::size_t i = 0; i < std::size(keys); ++i) {
    front_items[i].key = keys[i];
    front_items[i].id = static_cast<int>(i);
    back_items[i].key = keys[i];
    back_items[i].id = static_cast<int>(i);
    via_front.Insert(&front_items[i]);
    via_back.InsertFromBack(&back_items[i]);
  }
  EXPECT_EQ(Ids(via_front), Ids(via_back));
  EXPECT_EQ(Ids(via_front), (std::vector<int>{1, 5, 0, 2, 4, 7, 3, 6}));
  via_front.Clear();
  via_back.Clear();
}

TEST(SortedListTest, ResortFixesPerturbedKeys) {
  Queue q;
  std::vector<Item> items(6);
  for (int i = 0; i < 6; ++i) {
    items[static_cast<std::size_t>(i)].key = static_cast<double>(i);
    items[static_cast<std::size_t>(i)].id = i;
  }
  for (auto& it : items) {
    q.Insert(&it);
  }
  // Perturb two keys so the list is "mostly sorted" (the Section 3.2 case).
  items[1].key = 4.5;
  items[4].key = 0.5;
  q.Resort();
  EXPECT_TRUE(IsSorted(q));
  EXPECT_EQ(Ids(q), (std::vector<int>{0, 4, 2, 3, 1, 5}));
  q.Clear();
}

// Property: any random sequence of insert, remove and rekey-then-resort keeps
// sorted order.
TEST(SortedListPropertyTest, RandomOperationsStaySorted) {
  Rng rng(777);
  std::vector<Item> pool(64);
  for (int i = 0; i < 64; ++i) {
    pool[static_cast<std::size_t>(i)].id = i;
  }
  Queue q;
  std::vector<Item*> in_queue;
  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.NextBounded(3);
    if (op == 0 && in_queue.size() < pool.size()) {
      // Insert a random item that is not yet linked.
      for (auto& item : pool) {
        if (!item.hook.linked()) {
          item.key = rng.UniformDouble(0.0, 100.0);
          if (rng.Bernoulli(0.5)) {
            q.Insert(&item);
          } else {
            q.InsertFromBack(&item);
          }
          in_queue.push_back(&item);
          break;
        }
      }
    } else if (op == 1 && !in_queue.empty()) {
      const auto idx = rng.NextBounded(in_queue.size());
      Item* item = in_queue[idx];
      q.Remove(item);
      in_queue.erase(in_queue.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 2 && !in_queue.empty()) {
      const auto idx = rng.NextBounded(in_queue.size());
      in_queue[idx]->key = rng.UniformDouble(0.0, 100.0);
      q.Resort();
    }
    ASSERT_TRUE(IsSorted(q)) << "step " << step;
    ASSERT_EQ(q.size(), in_queue.size());
  }
  q.Clear();
}

// Property: Resort() restores order from arbitrary key perturbations.
TEST(SortedListPropertyTest, ResortAlwaysRestoresOrder) {
  Rng rng(888);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Item> items(40);
    Queue q;
    for (int i = 0; i < 40; ++i) {
      items[static_cast<std::size_t>(i)].id = i;
      items[static_cast<std::size_t>(i)].key = rng.UniformDouble(0.0, 10.0);
      q.Insert(&items[static_cast<std::size_t>(i)]);
    }
    for (auto& item : items) {
      if (rng.Bernoulli(0.3)) {
        item.key = rng.UniformDouble(0.0, 10.0);
      }
    }
    q.Resort();
    EXPECT_TRUE(IsSorted(q));
    EXPECT_EQ(q.size(), 40u);
    q.Clear();
  }
}

}  // namespace
}  // namespace sfs::common
