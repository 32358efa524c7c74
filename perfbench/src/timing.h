// The traced run's instrumentation, kept entirely outside the program under
// test: per-thread call accumulators, a bounded buffer of sampled spans, and
// the epoch-boundary clock used for the parallel engine's barrier numbers.
//
// Every call the benchmark times crosses into a repository module (see
// timed_layers.h).  A ScopedOp reads the steady clock on entry and exit and
// adds the difference to the calling thread's accumulator, so no timing
// record is shared between threads while a run is in flight.  One top-level
// call in kSpanSampleEvery (with everything nested under it) is also kept as
// a span — name, start, end, parent and thread — while span recording is on.

#ifndef PERFBENCH_SRC_TIMING_H_
#define PERFBENCH_SRC_TIMING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sfsperf {

// Steady-clock nanoseconds.
std::int64_t NowNs();

// CPU time consumed so far by the whole process (every thread) and by the
// calling thread, in nanoseconds.  On a virtual machine these leave out the
// time the host takes the virtual CPU away (steal), which wall time counts.
std::int64_t ProcessCpuNs();
std::int64_t ThreadCpuNs();

enum class Op : std::uint8_t {
  // sched, as the driver sees it (flat policy, or the sharded host).
  kPick,
  kCharge,
  kAdmit,
  kRemove,
  kBlock,
  kWakeup,
  kSetWeight,
  kSuggest,
  // sched, inside one uniprocessor shard of the sharded host.
  kShardPick,
  kShardCharge,
  kShardAdmit,
  kShardRemove,
  kShardBlock,
  kShardWakeup,
  kShardSetWeight,
  kShardSuggest,
  // workload: sim::Behavior callbacks; kNext also times the runtime
  // workload's work functions, which likewise return the task's next action.
  kNext,
  kOnWake,
  kOnDispatch,
  kOnPreempt,
  kCount,
};
inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

const char* OpName(Op op);
bool IsOuterSchedOp(Op op);
bool IsWorkloadOp(Op op);
// The kShard* twin of an outer sched op.
Op ShardTwin(Op op);

struct OpStat {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
};

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = none
  std::uint32_t thread = 0;
};

// One thread's records.  Written only by its thread during a run; read by the
// benchmark after the run (or inside the parallel engine's epoch completion,
// while every worker is parked at the barrier).
struct ThreadAcc {
  std::uint32_t thread = 0;
  std::array<OpStat, kOpCount> ops{};
  std::int64_t last_end_ns = 0;     // end of the latest timed call

  // Epoch accounting (parallel engine): from epoch start to this thread's
  // last timed call ("busy"), and from there to the barrier completing.
  std::int64_t epoch_busy_ns = 0;
  std::int64_t epoch_tail_ns = 0;
  std::int64_t epoch_samples = 0;

  // Span sampling state.
  int depth = 0;
  bool sampling = false;
  std::uint32_t sample_counter = 0;
  std::vector<std::uint32_t> open;  // ids of the open sampled spans
  std::vector<Span> spans;
  std::int64_t spans_dropped = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kSpanSampleEvery = 16;

  static Tracer& Get();

  // The calling thread's accumulator for the current generation.
  ThreadAcc& Local();

  // Discards every accumulator and starts a new generation.  Quiescent only:
  // no thread may be inside a timed call.  `span_capacity` spans per thread
  // are kept (0 turns span recording off).
  void Reset(std::size_t span_capacity);

  // The root span timed calls without a sampled parent hang under.
  void set_root_span(std::uint32_t id) { root_span_.store(id, std::memory_order_relaxed); }
  std::uint32_t root_span() const { return root_span_.load(std::memory_order_relaxed); }
  std::uint32_t NewSpanId() { return next_span_id_.fetch_add(1, std::memory_order_relaxed); }
  std::size_t span_capacity() const { return span_capacity_; }

  // Starts the epoch clock at `start_ns` (the RunUntil start).
  void BeginEpochs(std::int64_t start_ns);
  // Called from the epoch completion (single-threaded window): stamps the
  // boundary and settles every thread's busy/tail time for the epoch.
  void OnEpochBoundary();
  const std::vector<std::int64_t>& epoch_stamps() const { return epoch_stamps_; }

  // Accumulators of the current generation (quiescent only).
  std::vector<const ThreadAcc*> Threads() const;

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<ThreadAcc>> accs_;
  std::atomic<std::uint64_t> generation_{1};
  std::atomic<std::uint32_t> root_span_{0};
  std::atomic<std::uint32_t> next_span_id_{1};
  std::size_t span_capacity_ = 0;

  std::int64_t epoch_prev_ns_ = 0;
  std::vector<std::int64_t> epoch_stamps_;
};

// Times one call on the calling thread (RAII).
class ScopedOp {
 public:
  explicit ScopedOp(Op op);
  ~ScopedOp();

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  ThreadAcc& acc_;
  Op op_;
  std::uint32_t span_id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_;
};

// Writes `spans` as Chrome trace-event JSON (loads in ui.perfetto.dev).
bool WriteTraceEvents(const std::string& path, const std::vector<Span>& spans);

}  // namespace sfsperf

#endif  // PERFBENCH_SRC_TIMING_H_
