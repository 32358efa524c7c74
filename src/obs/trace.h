// obs::Trace — the per-CPU trace-ring set the engine, schedulers and executor
// record into.
//
// Concurrency contract (DESIGN.md "Observability"): a Trace owns one ring per
// CPU plus one lifecycle ring.  Ring `c` is written only by the context that
// owns CPU `c` — the single simulation thread (sim::Engine) or CPU `c`'s
// dispatcher thread (runtime::Executor) — and the lifecycle ring only under the
// scheduler's lifecycle lock (flat schedulers serialize everything anyway).
// Single-writer rings need no atomics, so the enabled path is a predicted
// branch plus a 24-byte store, and the disabled path (`trace == nullptr`)
// is exactly one predicted branch — the NotifySchedEvent contract.
//
// Clock domains never mix within one Trace: engine-side records carry
// simulated ticks (µs), executor-side records carry wall nanoseconds since
// the trace epoch.  The `clock()` tag tells the exporter which.

#ifndef SFS_OBS_TRACE_H_
#define SFS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/assert.h"
#include "src/obs/trace_ring.h"

namespace sfs::obs {

class Trace {
 public:
  enum class Clock : std::uint8_t {
    kSimTicks,   // timestamps are simulated ticks (µs)
    kWallNanos,  // timestamps are wall nanoseconds since epoch_ns()
  };

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Trace(int num_cpus, std::size_t capacity_per_ring = kDefaultCapacity,
                 Clock clock = Clock::kSimTicks)
      : num_cpus_(num_cpus), clock_(clock) {
    SFS_CHECK(num_cpus >= 1 && num_cpus <= 255);
    rings_.reserve(static_cast<std::size_t>(num_cpus) + 1);
    for (int i = 0; i <= num_cpus; ++i) {
      rings_.emplace_back(capacity_per_ring);
    }
  }

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  int num_cpus() const { return num_cpus_; }
  Clock clock() const { return clock_; }

  // --- recording (hot path) --------------------------------------------------

  // Appends one record to CPU `cpu`'s ring.  Caller must be that CPU's owning
  // context (see concurrency contract above).
  SFS_OBS_OUTLINED void Record(int cpu, TraceEventKind kind, std::int64_t ts,
                               std::int32_t tid, std::int64_t arg = 0) {
    SFS_DCHECK(cpu >= 0 && cpu < num_cpus_);
    TraceRecord record;
    record.ts = ts;
    record.arg = arg;
    record.tid = tid;
    record.kind = kind;
    record.cpu = static_cast<std::uint8_t>(cpu);
    rings_[static_cast<std::size_t>(cpu)].Append(record);
  }

  // Appends a lifecycle record (arrival/departure/block/wakeup/readjust).
  // Caller must hold the scheduler's lifecycle serialization.
  SFS_OBS_OUTLINED void RecordLifecycle(TraceEventKind kind, std::int64_t ts,
                                        std::int32_t tid, std::int64_t arg = 0) {
    TraceRecord record;
    record.ts = ts;
    record.arg = arg;
    record.tid = tid;
    record.kind = kind;
    record.cpu = static_cast<std::uint8_t>(num_cpus_);  // lifecycle pseudo-track
    rings_[static_cast<std::size_t>(num_cpus_)].Append(record);
  }

  // Appends a lifecycle record on simulation worker `worker`'s private ring
  // (sim::ParallelEngine: each worker emits lifecycle events for the shards it
  // owns, so the shared lifecycle ring's single-writer contract cannot hold).
  // Records carry the lifecycle pseudo-track cpu so exporters render them on
  // the same track; the ring index is what identifies the worker.  Requires a
  // prior EnsureWorkerLifecycleRings(>= worker + 1).
  SFS_OBS_OUTLINED void RecordLifecycleOnWorker(int worker, TraceEventKind kind,
                                                std::int64_t ts, std::int32_t tid,
                                                std::int64_t arg = 0) {
    SFS_DCHECK(worker >= 0 && worker < worker_rings_);
    TraceRecord record;
    record.ts = ts;
    record.arg = arg;
    record.tid = tid;
    record.kind = kind;
    record.cpu = static_cast<std::uint8_t>(num_cpus_);  // lifecycle pseudo-track
    rings_[static_cast<std::size_t>(num_cpus_) + 1 + static_cast<std::size_t>(worker)]
        .Append(record);
  }

  // --- offline access ---------------------------------------------------------

  TraceRing& ring(int cpu) {
    SFS_CHECK(cpu >= 0 && cpu < num_cpus_);
    return rings_[static_cast<std::size_t>(cpu)];
  }
  const TraceRing& ring(int cpu) const {
    SFS_CHECK(cpu >= 0 && cpu < num_cpus_);
    return rings_[static_cast<std::size_t>(cpu)];
  }
  TraceRing& lifecycle_ring() { return rings_[static_cast<std::size_t>(num_cpus_)]; }
  const TraceRing& lifecycle_ring() const {
    return rings_[static_cast<std::size_t>(num_cpus_)];
  }

  // Grows the ring set to hold at least `workers` per-worker lifecycle rings
  // (appended after the shared lifecycle ring).  Setup time only — must not
  // race with recording.  Existing rings keep their contents.
  void EnsureWorkerLifecycleRings(int workers,
                                  std::size_t capacity_per_ring = kDefaultCapacity) {
    SFS_CHECK(workers >= 0);
    while (worker_rings_ < workers) {
      rings_.emplace_back(capacity_per_ring);
      ++worker_rings_;
    }
  }

  int worker_rings() const { return worker_rings_; }

  TraceRing& worker_lifecycle_ring(int worker) {
    SFS_CHECK(worker >= 0 && worker < worker_rings_);
    return rings_[static_cast<std::size_t>(num_cpus_) + 1 + static_cast<std::size_t>(worker)];
  }
  const TraceRing& worker_lifecycle_ring(int worker) const {
    SFS_CHECK(worker >= 0 && worker < worker_rings_);
    return rings_[static_cast<std::size_t>(num_cpus_) + 1 + static_cast<std::size_t>(worker)];
  }

  std::uint64_t total_records() const {
    std::uint64_t n = 0;
    for (const TraceRing& r : rings_) {
      n += r.size();
    }
    return n;
  }

  std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const TraceRing& r : rings_) {
      n += r.dropped();
    }
    return n;
  }

  void Clear() {
    for (TraceRing& r : rings_) {
      r.Clear();
    }
  }

  // --- labels (setup time, not thread-safe vs recording on other threads) ----

  void SetThreadName(std::int32_t tid, std::string name) {
    thread_names_[tid] = std::move(name);
  }

  const std::map<std::int32_t, std::string>& thread_names() const {
    return thread_names_;
  }

  // --- timestamp hint ---------------------------------------------------------

  // Contexts that carry no clock of their own (the scheduler's migration and
  // readjustment paths) stamp records with this hint, published by whoever
  // does know the time: the engine stores sim-now before dispatching each
  // event, executor dispatchers store wall-now before calling into the
  // scheduler.  Relaxed atomic — a hint may trail by one scheduling decision,
  // which is exact in the single-threaded engine and within one dispatch
  // round in the executor.
  void PublishNow(std::int64_t now) { now_hint_.store(now, std::memory_order_relaxed); }
  std::int64_t now_hint() const { return now_hint_.load(std::memory_order_relaxed); }

  // Wall-clock traces: nanosecond epoch that record timestamps are relative
  // to (steady_clock origin captured by the executor at start).
  void set_epoch_ns(std::int64_t epoch) { epoch_ns_ = epoch; }
  std::int64_t epoch_ns() const { return epoch_ns_; }

 private:
  int num_cpus_;
  Clock clock_;
  int worker_rings_ = 0;
  std::int64_t epoch_ns_ = 0;
  std::atomic<std::int64_t> now_hint_{0};
  // [0, num_cpus) per-CPU, [num_cpus] lifecycle, then worker lifecycle rings.
  std::vector<TraceRing> rings_;
  // Ordered map: exporters iterate this into deterministic output
  // (tools/lint/check_determinism.py forbids unordered iteration here).
  std::map<std::int32_t, std::string> thread_names_;
};

}  // namespace sfs::obs

#endif  // SFS_OBS_TRACE_H_
