// The tid-addressed entity table (Scheduler::EntityTable): chunks are
// allocated with their first entity and freed with their last, a slot filed
// again starts from a default Entity, and under sched::Sharded a migration
// hands ownership between shards without moving the entity.

#include <gtest/gtest.h>

#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::sched {
namespace {

SchedConfig Config(int cpus) {
  SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = Msec(10);
  return config;
}

// Exposes the entity behind a tid, to check its fields directly.
class InspectableSfs : public Sfs {
 public:
  using Sfs::Sfs;
  using Scheduler::FindEntity;
};

TEST(EntityTableTest, FreshTidChurnKeepsAtMostTwoChunks) {
  constexpr ThreadId kTids = 100'000;
  constexpr ThreadId kLive = 64;
  Sfs flat(Config(2));
  Sharded<Sfs> sharded(Config(2));
  for (ThreadId tid = 0; tid < kTids; ++tid) {
    flat.AddThread(tid, 1.0 + tid % 3);
    sharded.AddThread(tid, 1.0 + tid % 3);
    if (tid >= kLive - 1) {
      flat.RemoveThread(tid - (kLive - 1));
      sharded.RemoveThread(tid - (kLive - 1));
    }
    // At most 64 consecutive tids are live, and they span at most two chunks.
    ASSERT_LE(flat.entity_chunks(), 2u) << "tid " << tid;
    ASSERT_LE(sharded.entity_chunks(), 2u) << "tid " << tid;
    ASSERT_LE(sharded.shard(0).entity_chunks(), 2u) << "tid " << tid;
  }
  EXPECT_EQ(flat.thread_count(), kLive - 1);
  EXPECT_EQ(sharded.CheckInvariants(), "");
  for (ThreadId tid = kTids - (kLive - 1); tid < kTids; ++tid) {
    flat.RemoveThread(tid);
    sharded.RemoveThread(tid);
  }
  EXPECT_EQ(flat.entity_chunks(), 0u);
  EXPECT_EQ(sharded.entity_chunks(), 0u);
  EXPECT_EQ(sharded.shard(1).entity_chunks(), 0u);
}

TEST(EntityTableTest, DistantTidsAllocateOneChunkEach) {
  constexpr ThreadId kFar = 1 << 20;
  Sfs s(Config(1));
  s.AddThread(0, 1.0);
  s.AddThread(kFar, 1.0);
  EXPECT_EQ(s.entity_chunks(), 2u);
  EXPECT_TRUE(s.Contains(kFar));
  EXPECT_FALSE(s.Contains(kFar - 1));
  EXPECT_FALSE(s.Contains(kFar + 64));
  EXPECT_FALSE(s.Contains(-1));
  s.RemoveThread(0);
  EXPECT_EQ(s.entity_chunks(), 1u);
  EXPECT_FALSE(s.Contains(0));
  s.RemoveThread(kFar);
  EXPECT_EQ(s.entity_chunks(), 0u);
}

TEST(EntityTableTest, ReaddedTidStartsFromDefaultEntity) {
  // Thread 0's weight is infeasible at p=2 (10 / 11 > 1/2), so readjustment
  // caps it; thread 1 keeps the chunk alive so thread 0's slot is reset in
  // place, not freed with its chunk.
  InspectableSfs s(Config(2));
  s.AddThread(0, 10.0);
  s.AddThread(1, 1.0);
  s.SetWarp(0, 5.0);
  for (int round = 0; round < 4; ++round) {
    const ThreadId a = s.PickNext(0);
    const ThreadId b = s.PickNext(1);
    s.Charge(a, Msec(10));
    s.Charge(b, Msec(10));
  }
  ASSERT_TRUE(s.FindEntity(0).capped);
  ASSERT_GT(s.FindEntity(0).start_tag(), 0.0);
  ASSERT_NE(s.FindEntity(0).warp_eff(), 0.0);
  s.RemoveThread(0);
  ASSERT_EQ(s.entity_chunks(), 1u);

  // Re-added, thread 0 must look exactly like fresh thread 2 admitted right
  // after it with the same weight.
  s.AddThread(0, 1.0);
  s.AddThread(2, 1.0);
  const Entity& again = s.FindEntity(0);
  const Entity& fresh = s.FindEntity(2);
  EXPECT_FALSE(again.capped);
  EXPECT_EQ(again.warp_eff(), 0.0);
  EXPECT_EQ(again.total_service, 0);
  EXPECT_EQ(again.last_cpu, kInvalidCpu);
  EXPECT_EQ(again.phi(), fresh.phi());
  EXPECT_EQ(again.start_tag(), fresh.start_tag());
  EXPECT_EQ(again.finish_tag(), fresh.finish_tag());
  EXPECT_EQ(again.phi_class(), fresh.phi_class());
  EXPECT_EQ(s.CheckInvariants(), "");
}

TEST(EntityTableTest, PeerShardTidStaysInvisible) {
  Sharded<Sfs> s(Config(2));
  s.AddThread(1, 1.0);  // shard 0
  s.AddThread(2, 1.0);  // shard 1
  ASSERT_EQ(s.ShardOf(1), 0);
  ASSERT_EQ(s.ShardOf(2), 1);
  // Both entities share one chunk of the shared table.
  EXPECT_EQ(s.shard(0).entity_chunks(), 1u);
  EXPECT_TRUE(s.shard(0).Contains(1));
  EXPECT_FALSE(s.shard(0).Contains(2));
  EXPECT_TRUE(s.shard(1).Contains(2));
  EXPECT_FALSE(s.shard(1).Contains(1));
  EXPECT_FALSE(s.shard(1).Contains(3));
}

TEST(EntityTableTest, MigrantKeepsItsAddress) {
  Sharded<Sfs> s(Config(2));
  s.AddThread(1, 1.0);  // shard 0
  s.AddThread(2, 1.0);  // shard 1
  s.AddThread(3, 1.0);  // shard 0
  const Entity* before = s.shard(0).FindRunnable(3);
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(s.PickNext(0), 1);
  ASSERT_EQ(s.PickNext(1), 2);
  s.Charge(2, Msec(10));
  s.Block(2);
  ASSERT_EQ(s.PickNext(1), 3);  // shard 1 steals thread 3
  ASSERT_EQ(s.steals(), 1);
  EXPECT_EQ(s.shard(1).FindRunnable(3), before);
  EXPECT_EQ(s.shard(0).FindRunnable(3), nullptr);
  EXPECT_FALSE(s.shard(0).Contains(3));
  EXPECT_TRUE(s.shard(1).Contains(3));
  s.Charge(3, Msec(10));
  s.Charge(1, Msec(10));
  EXPECT_EQ(s.CheckInvariants(), "");
}

TEST(EntityTableDeathTest, DuplicateTidAcrossShards) {
  Sharded<Sfs> s(Config(2));
  s.AddThread(1, 1.0);  // filed by shard 0
  EXPECT_DEATH(s.shard(1).AddThread(1, 1.0), "CHECK failed");
  EXPECT_DEATH(s.AddThread(1, 1.0), "CHECK failed");
}

TEST(EntityTableDeathTest, FlatSchedulerCannotDetach) {
  // A flat scheduler's lookups trust every entity filed in its own table.
  Sfs flat(Config(1));
  flat.AddThread(1, 1.0);
  EXPECT_DEATH(flat.DetachEntity(1), "CHECK failed");
}

}  // namespace
}  // namespace sfs::sched
