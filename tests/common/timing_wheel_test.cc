#include "src/common/timing_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace sfs::common {
namespace {

// Payload mirroring the engine's event: the value carries the sequence number
// so drain order can be audited against the (time, seq) contract.  Events are
// dequeued the way both engines dequeue them: NextTime() finds a tick,
// DrainCurrent() runs every event at it.
struct Ev {
  std::int64_t time = 0;
  std::uint64_t seq = 0;
};

using Wheel = TimingWheel<Ev>;

// Drains the tick the last successful NextTime() reported.
std::vector<Ev> DrainTick(Wheel& wheel) {
  std::vector<Ev> out;
  const std::size_t drained = wheel.DrainCurrent([&](const Ev& ev) { out.push_back(ev); });
  EXPECT_EQ(drained, out.size());
  return out;
}

std::vector<Ev> Drain(Wheel& wheel, std::int64_t until) {
  std::vector<Ev> out;
  std::int64_t t = 0;
  while (wheel.NextTime(until, &t)) {
    for (const Ev& ev : DrainTick(wheel)) {
      EXPECT_EQ(ev.time, t);
      out.push_back(ev);
    }
  }
  return out;
}

TEST(TimingWheelTest, EmptyWheel) {
  Wheel wheel;
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.size(), 0u);
  std::int64_t t = 0;
  EXPECT_FALSE(wheel.NextTime(1'000'000, &t));
}

TEST(TimingWheelTest, SingleEvent) {
  Wheel wheel;
  wheel.Push(42, {42, 0});
  EXPECT_EQ(wheel.size(), 1u);
  std::int64_t t = 0;
  ASSERT_TRUE(wheel.NextTime(100, &t));
  EXPECT_EQ(t, 42);
  const auto tick = DrainTick(wheel);
  ASSERT_EQ(tick.size(), 1u);
  EXPECT_EQ(tick[0].time, 42);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheelTest, BoundIsInclusive) {
  Wheel wheel;
  wheel.Push(100, {100, 0});
  std::int64_t t = 0;
  EXPECT_FALSE(wheel.NextTime(99, &t));
  ASSERT_TRUE(wheel.NextTime(100, &t));
  EXPECT_EQ(t, 100);
}

TEST(TimingWheelTest, BeyondBoundLeavesFuturePushesLegal) {
  Wheel wheel;
  wheel.Push(1'000'000, {1'000'000, 0});
  std::int64_t t = 0;
  EXPECT_FALSE(wheel.NextTime(10, &t));
  // The bounded scan must not advance internal time past the bound: an event
  // between the bound and the far-future one is still pushable and pops first.
  wheel.Push(500, {500, 1});
  ASSERT_TRUE(wheel.NextTime(1'000'000, &t));
  EXPECT_EQ(t, 500);
  EXPECT_EQ(DrainTick(wheel).size(), 1u);
  ASSERT_TRUE(wheel.NextTime(1'000'000, &t));
  EXPECT_EQ(t, 1'000'000);
}

TEST(TimingWheelTest, FifoAmongEqualTimes) {
  Wheel wheel;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    wheel.Push(777, {777, seq});
  }
  const auto out = Drain(wheel, 1'000);
  ASSERT_EQ(out.size(), 100u);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_EQ(out[seq].seq, seq);
  }
}

TEST(TimingWheelTest, SameTickPushDuringDrainPopsThisTick) {
  // An event handler that schedules more work at the current tick must see it
  // fire within the same tick, after everything already pending (seq order) —
  // the engine relies on this for exit-hook chains.
  Wheel wheel;
  wheel.Push(5, {5, 0});
  wheel.Push(5, {5, 1});
  std::int64_t t = 0;
  ASSERT_TRUE(wheel.NextTime(10, &t));
  EXPECT_EQ(t, 5);
  std::vector<Ev> fired;
  wheel.DrainCurrent([&](const Ev& ev) {
    fired.push_back(ev);
    if (ev.seq == 0) {  // the handler re-pushes at its own tick and the next
      wheel.Push(5, {5, 2});
      wheel.Push(6, {6, 3});
    }
  });
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].seq, 0u);
  EXPECT_EQ(fired[1].seq, 1u);
  EXPECT_EQ(fired[2].seq, 2u);
  EXPECT_EQ(fired[2].time, 5);
  ASSERT_TRUE(wheel.NextTime(10, &t));
  EXPECT_EQ(t, 6);
  const auto next = DrainTick(wheel);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].seq, 3u);
}

TEST(TimingWheelTest, CrossLevelCascadePreservesFifo) {
  // Two same-time events far enough out to live on a high level, pushed around
  // nearer events so they cascade; order among them must survive the cascade.
  Wheel wheel;
  const std::int64_t far = 1 << 20;  // level 2 territory
  wheel.Push(far, {far, 0});
  wheel.Push(3, {3, 1});
  wheel.Push(far, {far, 2});
  wheel.Push(70'000, {70'000, 3});  // level 1 territory
  const auto out = Drain(wheel, far + 1);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 3u);
  EXPECT_EQ(out[2].seq, 0u);
  EXPECT_EQ(out[3].seq, 2u);
}

TEST(TimingWheelTest, LateInsertAtSameTimeAsCascadedEventKeepsSeqOrder) {
  Wheel wheel;
  const std::int64_t t_far = 100'000;
  wheel.Push(t_far, {t_far, 0});  // waits on level >= 1
  wheel.Push(99'999, {99'999, 1});
  std::int64_t t = 0;
  // Draining to 99'999 cascades the 100'000 event down to level 0.
  ASSERT_TRUE(wheel.NextTime(99'999, &t));
  EXPECT_EQ(t, 99'999);
  EXPECT_EQ(DrainTick(wheel).size(), 1u);
  // A fresh same-time push must file *behind* the cascaded older event.
  wheel.Push(t_far, {t_far, 2});
  const auto out = Drain(wheel, t_far);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[1].seq, 2u);
}

TEST(TimingWheelTest, ReserveDoesNotDisturbPendingEvents) {
  Wheel wheel;
  wheel.Push(10, {10, 0});
  wheel.Reserve(10'000);
  wheel.Push(5, {5, 1});
  const auto out = Drain(wheel, 20);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].time, 5);
  EXPECT_EQ(out[1].time, 10);
}

// Differential against a (time, seq) min-heap over a seeded random schedule
// with interleaved pushes and bounded drains — the wheel's substitutability
// contract in one property.  Some handlers push again from inside the drain,
// at their own tick or later, as the engines' event handlers do.
TEST(TimingWheelTest, MatchesMinHeapOverRandomSchedule) {
  struct HeapGreater {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Wheel wheel;
    std::priority_queue<Ev, std::vector<Ev>, HeapGreater> heap;
    Rng rng(seed);
    std::int64_t now = 0;
    std::uint64_t seq = 0;
    for (int round = 0; round < 200; ++round) {
      const int pushes = static_cast<int>(rng.UniformInt(0, 8));
      for (int i = 0; i < pushes; ++i) {
        // Mix of near, same-tick and far-future times across wheel levels.
        std::int64_t dt = 0;
        switch (rng.UniformInt(0, 3)) {
          case 0: dt = 0; break;
          case 1: dt = static_cast<std::int64_t>(rng.UniformInt(1, 300)); break;
          case 2: dt = static_cast<std::int64_t>(rng.UniformInt(1, 100'000)); break;
          default: dt = static_cast<std::int64_t>(rng.UniformInt(1, 50'000'000)); break;
        }
        const Ev ev{now + dt, seq++};
        wheel.Push(ev.time, ev);
        heap.push(ev);
      }
      const std::int64_t until = now + static_cast<std::int64_t>(rng.UniformInt(0, 200'000));
      std::int64_t t = 0;
      while (wheel.NextTime(until, &t)) {
        wheel.DrainCurrent([&](const Ev& got) {
          ASSERT_FALSE(heap.empty()) << "seed " << seed;
          const Ev want = heap.top();
          heap.pop();
          ASSERT_EQ(got.time, want.time) << "seed " << seed;
          ASSERT_EQ(got.seq, want.seq) << "seed " << seed;
          if (rng.UniformInt(0, 7) == 0) {
            const std::int64_t dt = rng.UniformInt(0, 1) == 0 ? 0 : rng.UniformInt(1, 300);
            const Ev again{got.time + dt, seq++};
            wheel.Push(again.time, again);
            heap.push(again);
          }
        });
        ASSERT_FALSE(HasFatalFailure());
      }
      if (!heap.empty()) {
        ASSERT_GT(heap.top().time, until) << "seed " << seed;
      }
      now = until;
    }
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sfs::common
