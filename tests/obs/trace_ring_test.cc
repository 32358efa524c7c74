#include "src/obs/trace_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/obs/trace.h"

namespace sfs::obs {
namespace {

TraceRecord MakeRecord(std::int64_t ts, std::int32_t tid = 7,
                       TraceEventKind kind = TraceEventKind::kGrant) {
  TraceRecord r;
  r.ts = ts;
  r.arg = ts * 10;
  r.tid = tid;
  r.kind = kind;
  return r;
}

TEST(TraceRingTest, RecordIsPacked) {
  static_assert(sizeof(TraceRecord) == 24);
  EXPECT_EQ(sizeof(TraceRecord), 24u);
}

TEST(TraceRingTest, AppendBelowCapacityKeepsEverythingInOrder) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 0u);
  for (std::int64_t i = 0; i < 5; ++i) {
    ring.Append(MakeRecord(i));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.appended(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.at(i).ts, static_cast<std::int64_t>(i));
    EXPECT_EQ(ring.at(i).arg, static_cast<std::int64_t>(i) * 10);
  }
}

TEST(TraceRingTest, WraparoundKeepsNewestWindowAndCountsDrops) {
  TraceRing ring(4);
  for (std::int64_t i = 0; i < 10; ++i) {
    ring.Append(MakeRecord(i));
  }
  // ftrace policy: the newest window survives, oldest records are the loss.
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.appended(), 10u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).ts, static_cast<std::int64_t>(6 + i));
  }
}

TEST(TraceRingTest, ExactlyFullRingDropsNothing) {
  TraceRing ring(4);
  for (std::int64_t i = 0; i < 4; ++i) {
    ring.Append(MakeRecord(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.at(0).ts, 0);
  EXPECT_EQ(ring.at(3).ts, 3);
}

TEST(TraceRingTest, ForEachVisitsOldestFirst) {
  TraceRing ring(3);
  for (std::int64_t i = 0; i < 7; ++i) {
    ring.Append(MakeRecord(i));
  }
  std::vector<std::int64_t> seen;
  ring.ForEach([&](const TraceRecord& r) { seen.push_back(r.ts); });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{4, 5, 6}));
}

TEST(TraceRingTest, ClearResetsSizeAndDrops) {
  TraceRing ring(2);
  ring.Append(MakeRecord(1));
  ring.Append(MakeRecord(2));
  ring.Append(MakeRecord(3));
  EXPECT_EQ(ring.dropped(), 1u);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  ring.Append(MakeRecord(9));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.at(0).ts, 9);
}

TEST(TraceTest, RecordsRouteToTheOwningRing) {
  Trace trace(/*num_cpus=*/3, /*capacity_per_ring=*/16);
  trace.Record(0, TraceEventKind::kGrant, 100, 1, 5);
  trace.Record(2, TraceEventKind::kRun, 200, 2, 50);
  trace.Record(2, TraceEventKind::kSteal, 250, 2, 1);
  trace.RecordLifecycle(TraceEventKind::kArrival, 0, 1);

  EXPECT_EQ(trace.ring(0).size(), 1u);
  EXPECT_EQ(trace.ring(1).size(), 0u);
  EXPECT_EQ(trace.ring(2).size(), 2u);
  EXPECT_EQ(trace.lifecycle_ring().size(), 1u);
  EXPECT_EQ(trace.total_records(), 4u);
  EXPECT_EQ(trace.total_dropped(), 0u);

  // The lifecycle pseudo-track carries cpu == num_cpus.
  EXPECT_EQ(trace.lifecycle_ring().at(0).cpu, 3);
  EXPECT_EQ(trace.ring(2).at(0).kind, TraceEventKind::kRun);
  EXPECT_EQ(trace.ring(2).at(1).kind, TraceEventKind::kSteal);
}

TEST(TraceTest, NowHintRoundTrips) {
  Trace trace(1);
  EXPECT_EQ(trace.now_hint(), 0);
  trace.PublishNow(12345);
  EXPECT_EQ(trace.now_hint(), 12345);
}

TEST(TraceTest, ThreadNamesAndClockAndEpoch) {
  Trace trace(1, 8, Trace::Clock::kWallNanos);
  EXPECT_EQ(trace.clock(), Trace::Clock::kWallNanos);
  trace.SetThreadName(42, "hog T42");
  ASSERT_EQ(trace.thread_names().count(42), 1u);
  EXPECT_EQ(trace.thread_names().at(42), "hog T42");
  trace.set_epoch_ns(999);
  EXPECT_EQ(trace.epoch_ns(), 999);
}

}  // namespace
}  // namespace sfs::obs
