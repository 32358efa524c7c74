#include <time.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "src/timed_layers.h"
#include "src/timing.h"

namespace sfsperf {

using sfs::Tick;
using sfs::sched::CpuId;
using sfs::sched::Entity;
using sfs::sched::SchedConfig;
using sfs::sched::ThreadId;
using sfs::sched::Weight;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace

std::int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

const char* OpName(Op op) {
  switch (op) {
    case Op::kPick:
      return "sched.pick";
    case Op::kCharge:
      return "sched.charge";
    case Op::kAdmit:
      return "sched.admit";
    case Op::kRemove:
      return "sched.remove";
    case Op::kBlock:
      return "sched.block";
    case Op::kWakeup:
      return "sched.wakeup";
    case Op::kSetWeight:
      return "sched.set_weight";
    case Op::kSuggest:
      return "sched.suggest_preempt";
    case Op::kShardPick:
      return "sched.shard_pick";
    case Op::kShardCharge:
      return "sched.shard_charge";
    case Op::kShardAdmit:
      return "sched.shard_admit";
    case Op::kShardRemove:
      return "sched.shard_remove";
    case Op::kShardBlock:
      return "sched.shard_block";
    case Op::kShardWakeup:
      return "sched.shard_wakeup";
    case Op::kShardSetWeight:
      return "sched.shard_set_weight";
    case Op::kShardSuggest:
      return "sched.shard_suggest_preempt";
    case Op::kNext:
      return "workload.next";
    case Op::kOnWake:
      return "workload.on_wake";
    case Op::kOnDispatch:
      return "workload.on_dispatch";
    case Op::kOnPreempt:
      return "workload.on_preempt";
    case Op::kCount:
      break;
  }
  return "?";
}

bool IsOuterSchedOp(Op op) { return op <= Op::kSuggest; }

bool IsWorkloadOp(Op op) { return op >= Op::kNext && op <= Op::kOnPreempt; }

Op ShardTwin(Op op) {
  return static_cast<Op>(static_cast<int>(op) + static_cast<int>(Op::kShardPick));
}

// --- Tracer -------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

ThreadAcc& Tracer::Local() {
  thread_local ThreadAcc* cached = nullptr;
  thread_local std::uint64_t cached_generation = 0;
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (cached_generation != generation) {
    std::lock_guard<std::mutex> lock(mu_);
    auto acc = std::make_unique<ThreadAcc>();
    acc->thread = static_cast<std::uint32_t>(accs_.size() + 1);
    acc->spans.reserve(span_capacity_);
    cached = acc.get();
    cached_generation = generation;
    accs_.push_back(std::move(acc));
  }
  return *cached;
}

void Tracer::Reset(std::size_t span_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  accs_.clear();
  span_capacity_ = span_capacity;
  root_span_.store(0, std::memory_order_relaxed);
  epoch_prev_ns_ = 0;
  epoch_stamps_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

void Tracer::BeginEpochs(std::int64_t start_ns) { epoch_prev_ns_ = start_ns; }

void Tracer::OnEpochBoundary() {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& acc : accs_) {
    if (acc->last_end_ns > epoch_prev_ns_) {
      acc->epoch_busy_ns += acc->last_end_ns - epoch_prev_ns_;
      acc->epoch_tail_ns += now - acc->last_end_ns;
    } else {
      acc->epoch_tail_ns += now - epoch_prev_ns_;
    }
    ++acc->epoch_samples;
  }
  epoch_stamps_.push_back(now);
  epoch_prev_ns_ = now;
}

std::vector<const ThreadAcc*> Tracer::Threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadAcc*> out;
  out.reserve(accs_.size());
  for (const auto& acc : accs_) {
    out.push_back(acc.get());
  }
  return out;
}

// --- ScopedOp -----------------------------------------------------------------

ScopedOp::ScopedOp(Op op) : acc_(Tracer::Get().Local()), op_(op) {
  Tracer& tracer = Tracer::Get();
  const std::size_t capacity = tracer.span_capacity();
  if (acc_.depth == 0) {
    acc_.sampling =
        capacity > 0 && ++acc_.sample_counter % Tracer::kSpanSampleEvery == 0;
  }
  ++acc_.depth;
  if (acc_.sampling) {
    if (acc_.spans.size() + acc_.open.size() < capacity) {
      span_id_ = tracer.NewSpanId();
      parent_ = acc_.open.empty() ? tracer.root_span() : acc_.open.back();
      acc_.open.push_back(span_id_);
    } else {
      ++acc_.spans_dropped;
    }
  }
  start_ = NowNs();
}

ScopedOp::~ScopedOp() {
  const std::int64_t end = NowNs();
  OpStat& stat = acc_.ops[static_cast<std::size_t>(op_)];
  ++stat.calls;
  stat.ns += end - start_;
  acc_.last_end_ns = end;
  if (span_id_ != 0) {
    acc_.open.pop_back();
    acc_.spans.push_back({OpName(op_), start_, end, span_id_, parent_, acc_.thread});
  }
  --acc_.depth;
}

bool WriteTraceEvents(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) {
      origin = s.start_ns;
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                 first ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.id, s.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// --- timed layers -------------------------------------------------------------

namespace {

// sched::MakeScheduler builds "sfs" and "sharded-sfs" with readjustment on;
// the timed twins must be configured identically.
SchedConfig Readjusting(SchedConfig config) {
  config.use_readjustment = true;
  return config;
}

}  // namespace

TimedSfs::TimedSfs(const SchedConfig& config, bool shard)
    : Sfs(Readjusting(config)), shard_(shard) {}

CpuId TimedSfs::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  ScopedOp op(Level(Op::kSuggest));
  return Sfs::SuggestPreemption(woken, elapsed);
}

void TimedSfs::OnAdmit(Entity& e) {
  ScopedOp op(Level(Op::kAdmit));
  Sfs::OnAdmit(e);
}

void TimedSfs::OnRemove(Entity& e) {
  ScopedOp op(Level(Op::kRemove));
  Sfs::OnRemove(e);
}

void TimedSfs::OnBlocked(Entity& e) {
  ScopedOp op(Level(Op::kBlock));
  Sfs::OnBlocked(e);
}

void TimedSfs::OnWoken(Entity& e) {
  ScopedOp op(Level(Op::kWakeup));
  Sfs::OnWoken(e);
}

void TimedSfs::OnWeightChanged(Entity& e, Weight old_weight) {
  ScopedOp op(Level(Op::kSetWeight));
  Sfs::OnWeightChanged(e, old_weight);
}

Entity* TimedSfs::PickNextEntity(CpuId cpu) {
  ScopedOp op(Level(Op::kPick));
  return Sfs::PickNextEntity(cpu);
}

void TimedSfs::OnCharge(Entity& e, Tick ran_for) {
  ScopedOp op(Level(Op::kCharge));
  Sfs::OnCharge(e, ran_for);
}

TimedSharded::TimedSharded(const SchedConfig& config)
    : ShardedScheduler(Readjusting(config), [](const SchedConfig& shard_config) {
        return std::make_unique<TimedSfs>(shard_config, /*shard=*/true);
      }) {}

CpuId TimedSharded::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  ScopedOp op(Op::kSuggest);
  return ShardedScheduler::SuggestPreemption(woken, elapsed);
}

void TimedSharded::OnEpochBoundary(Tick now) {
  ShardedScheduler::OnEpochBoundary(now);
  Tracer::Get().OnEpochBoundary();
}

void TimedSharded::OnAdmit(Entity& e) {
  ScopedOp op(Op::kAdmit);
  ShardedScheduler::OnAdmit(e);
}

void TimedSharded::OnRemove(Entity& e) {
  ScopedOp op(Op::kRemove);
  ShardedScheduler::OnRemove(e);
}

void TimedSharded::OnBlocked(Entity& e) {
  ScopedOp op(Op::kBlock);
  ShardedScheduler::OnBlocked(e);
}

void TimedSharded::OnWoken(Entity& e) {
  ScopedOp op(Op::kWakeup);
  ShardedScheduler::OnWoken(e);
}

void TimedSharded::OnWeightChanged(Entity& e, Weight old_weight) {
  ScopedOp op(Op::kSetWeight);
  ShardedScheduler::OnWeightChanged(e, old_weight);
}

Entity* TimedSharded::PickNextEntity(CpuId cpu) {
  ScopedOp op(Op::kPick);
  return ShardedScheduler::PickNextEntity(cpu);
}

void TimedSharded::OnCharge(Entity& e, Tick ran_for) {
  ScopedOp op(Op::kCharge);
  ShardedScheduler::OnCharge(e, ran_for);
}

TimedBehavior::TimedBehavior(std::unique_ptr<sfs::sim::Behavior> inner)
    : inner_(std::move(inner)) {}

sfs::sim::Action TimedBehavior::Next(Tick now) {
  ScopedOp op(Op::kNext);
  return inner_->Next(now);
}

void TimedBehavior::OnWake(Tick now) {
  ScopedOp op(Op::kOnWake);
  inner_->OnWake(now);
}

void TimedBehavior::OnDispatch(Tick now) {
  ScopedOp op(Op::kOnDispatch);
  inner_->OnDispatch(now);
}

void TimedBehavior::OnPreempt(Tick now) {
  ScopedOp op(Op::kOnPreempt);
  inner_->OnPreempt(now);
}

}  // namespace sfsperf
