#include "src/runtime_mixed.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "src/runtime/executor.h"
#include "src/sched/factory.h"
#include "src/timed_layers.h"
#include "src/timing.h"

namespace sfsperf {

using sfs::Tick;
using sfs::runtime::Executor;
using sfs::sched::Scheduler;
using sfs::sched::ThreadId;

namespace {

// Work-unit sizes in multiply-add iterations: tens of microseconds for a
// hog's unit and a few for a blocker's, fixed so that units per second track
// the CPU the tasks actually get.
constexpr std::uint64_t kHogUnitIters = 40000;
constexpr std::uint64_t kBlockerUnitIters = 4000;

std::uint64_t Spin(std::uint64_t iters, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

struct HogState {
  ThreadId tid = 0;
  std::int64_t units = 0;
  std::int64_t work_ns = 0;
  std::int64_t work_cpu_ns = 0;
  std::uint64_t sink = 1;
};

struct BlockerState {
  ThreadId tid = 0;
  const std::vector<Tick>* durations = nullptr;
  std::size_t next = 0;
  std::int64_t pending_wake_ns = -1;  // Block return + d; -1 when not blocked
  std::int64_t blocks = 0;
  std::int64_t resumes = 0;
  std::int64_t units = 0;
  std::int64_t work_ns = 0;
  std::int64_t work_cpu_ns = 0;
  std::uint64_t sink = 1;
  std::vector<double> resume_us;
};

// Everything one repetition builds.  Declaration order is destruction order
// reversed: the executor (which joins its threads) goes before the scheduler
// and the task states its work functions point at.
struct Setup {
  RuntimeInputs inputs;
  std::deque<HogState> hogs;
  std::deque<BlockerState> blockers;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Executor> executor;
};

std::unique_ptr<Setup> BuildSetup(std::uint64_t seed, bool traced) {
  auto s = std::make_unique<Setup>();
  s->inputs = MakeRuntimeInputs(seed);
  sfs::sched::SchedConfig config;
  config.num_cpus = s->inputs.cpus;
  if (traced) {
    s->scheduler = std::make_unique<TimedSharded>(config);
  } else {
    std::string error;
    s->scheduler = sfs::sched::MakeScheduler("sharded-sfs", config, &error);
    if (s->scheduler == nullptr) {
      std::fprintf(stderr, "sfsperf: %s\n", error.c_str());
      std::abort();
    }
  }
  s->executor = std::make_unique<Executor>(*s->scheduler, Executor::Config{});

  ThreadId next_tid = 1;
  for (const double weight : s->inputs.hog_weights) {
    HogState& hog = s->hogs.emplace_back();
    hog.tid = next_tid++;
    s->executor->AddTask(hog.tid, weight, [&hog, traced]() {
      std::optional<ScopedOp> op;
      if (traced) {
        op.emplace(Op::kNext);
      }
      const std::int64_t start = NowNs();
      const std::int64_t cpu_start = ThreadCpuNs();
      hog.sink = Spin(kHogUnitIters, hog.sink);
      hog.work_cpu_ns += ThreadCpuNs() - cpu_start;
      hog.work_ns += NowNs() - start;
      ++hog.units;
      return Executor::WorkResult::Continue();
    });
  }
  for (const auto& durations : s->inputs.block_durations) {
    BlockerState& b = s->blockers.emplace_back();
    b.tid = next_tid++;
    b.durations = &durations;
    b.resume_us.reserve(4096);
    s->executor->AddTask(b.tid, 1.0, [&b, traced]() {
      std::optional<ScopedOp> op;
      if (traced) {
        op.emplace(Op::kNext);
      }
      const std::int64_t start = NowNs();
      const std::int64_t cpu_start = ThreadCpuNs();
      if (b.pending_wake_ns >= 0) {
        b.resume_us.push_back(static_cast<double>(start - b.pending_wake_ns) / 1000.0);
        ++b.resumes;
      }
      b.sink = Spin(kBlockerUnitIters, b.sink);
      ++b.units;
      ++b.blocks;
      const Tick d = (*b.durations)[b.next++ % b.durations->size()];
      b.work_cpu_ns += ThreadCpuNs() - cpu_start;
      const std::int64_t end = NowNs();
      b.work_ns += end - start;
      b.pending_wake_ns = end + d * 1000;
      return Executor::WorkResult::Block(d);
    });
  }
  return s;
}

}  // namespace

sfs::obs::HistogramSnapshot MergeHistograms(const sfs::obs::HistogramSnapshot& a,
                                            const sfs::obs::HistogramSnapshot& b) {
  if (a.count() == 0) {
    return b;
  }
  if (b.count() == 0) {
    return a;
  }
  std::vector<std::uint64_t> buckets = a.buckets();
  buckets.resize(std::max(buckets.size(), b.buckets().size()), 0);
  for (std::size_t i = 0; i < b.buckets().size(); ++i) {
    buckets[i] += b.buckets()[i];
  }
  return sfs::obs::HistogramSnapshot(
      std::move(buckets), a.count() + b.count(), a.sum() + b.sum(),
      static_cast<std::int64_t>(std::min(a.min(), b.min())),
      static_cast<std::int64_t>(std::max(a.max(), b.max())));
}

RuntimeRepResult RunRuntimeRep(std::uint64_t seed, bool traced, int extra_setups) {
  RuntimeRepResult r;
  for (int i = 0; i < extra_setups; ++i) {
    const std::int64_t start = NowNs();
    std::unique_ptr<Setup> unused = BuildSetup(seed, traced);
    r.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  const std::int64_t setup_start = NowNs();
  std::unique_ptr<Setup> s = BuildSetup(seed, traced);
  r.setup_s.push_back(static_cast<double>(NowNs() - setup_start) * 1e-9);

  const std::int64_t cpu_start = ProcessCpuNs();
  const Tick wall = s->executor->Run(s->inputs.rep_wall);
  r.cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9;
  r.wall_s = sfs::ToSeconds(wall);

  const Executor& ex = *s->executor;
  r.dispatches = ex.dispatches();
  r.wakeups = ex.wakeups();
  r.preemptions = ex.preemptions();
  r.kicks = ex.kicks();
  r.steals = s->scheduler->steals();
  r.shard_migrations = s->scheduler->shard_migrations();
  r.dispatch_ns = ex.dispatch_latencies();
  r.lock_wait_ns = ex.lock_wait_latencies();
  r.wake_apply_ns = ex.wake_apply_latencies();
  r.wake_to_dispatch_ns = ex.wake_to_dispatch_latencies();
  r.preempt_latency_us = ex.preempt_latencies().samples();

  Tick cpu_sum = 0;
  r.every_task_ran = true;
  std::vector<double> hog_cpu;
  for (const HogState& hog : s->hogs) {
    const Tick cpu = ex.CpuTime(hog.tid);
    cpu_sum += cpu;
    hog_cpu.push_back(static_cast<double>(cpu));
    r.every_task_ran = r.every_task_ran && cpu > 0 && hog.units > 0;
    r.work_units += hog.units;
    r.work_ns += static_cast<double>(hog.work_ns);
    r.work_cpu_ns += static_cast<double>(hog.work_cpu_ns);
  }
  r.every_block_resumed = true;
  for (const BlockerState& b : s->blockers) {
    const Tick cpu = ex.CpuTime(b.tid);
    cpu_sum += cpu;
    r.every_task_ran = r.every_task_ran && cpu > 0 && b.units > 0;
    // The last Block may still be pending when the run's wall limit ends it.
    r.every_block_resumed = r.every_block_resumed && b.resumes > 0 &&
                            (b.blocks - b.resumes == 0 || b.blocks - b.resumes == 1);
    r.work_units += b.units;
    r.work_ns += static_cast<double>(b.work_ns);
    r.work_cpu_ns += static_cast<double>(b.work_cpu_ns);
    r.resume_us.insert(r.resume_us.end(), b.resume_us.begin(), b.resume_us.end());
  }
  r.cpu_within_capacity = cpu_sum <= static_cast<Tick>(s->inputs.cpus) * wall;

  double hog_sum = 0.0;
  double entitled_sum = 0.0;
  for (std::size_t i = 0; i < hog_cpu.size(); ++i) {
    hog_sum += hog_cpu[i];
    entitled_sum += s->inputs.hog_entitlement[i];
  }
  for (std::size_t i = 0; i < hog_cpu.size() && hog_sum > 0.0; ++i) {
    const double ratio =
        (hog_cpu[i] / hog_sum) / (s->inputs.hog_entitlement[i] / entitled_sum);
    r.share_ratio_min = i == 0 ? ratio : std::min(r.share_ratio_min, ratio);
  }
  return r;
}

}  // namespace sfsperf
