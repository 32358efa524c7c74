// Randomized cross-backend differential test: every scheduler migrated onto
// the RunQueue abstraction must produce an *identical dispatch trace* on the
// sorted-list and skip-list backends for the same operation sequence — the
// backend changes constants, never decisions.
//
// A seeded op mix (arrivals, departures/kills, blocks, wakeups, weight
// changes, variable-length charges, dispatches) drives two instances of the
// same policy in lockstep, one per backend, asserting every PickNext and
// SuggestPreemption agrees; final per-thread state (service, tags via GetPhi)
// must match too.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sched/hsfs.h"
#include "src/sched/partitioned.h"
#include "src/sched/sfs.h"

namespace sfs::sched {
namespace {

struct Mirror {
  std::vector<ThreadId> runnable;  // not running
  std::vector<ThreadId> blocked;
  std::vector<std::pair<ThreadId, CpuId>> running;
  ThreadId next_tid = 1;
};

ThreadId TakeAt(std::vector<ThreadId>& v, std::size_t i) {
  const ThreadId tid = v[i];
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
  return tid;
}

// Drives the same seeded op mix through two pre-built instances of one policy
// (one per run-queue backend), asserting lockstep agreement.  `route_classes`
// is true for H-SFS, whose threads are routed among scheduling classes.
void DriveLockstepOn(Scheduler& sorted_backend, Scheduler& skip_backend, bool route_classes,
                     std::uint64_t seed, int ops, int cpus) {
  Scheduler* a = &sorted_backend;
  Scheduler* b = &skip_backend;
  common::Rng rng(seed);
  Mirror m;
  std::vector<CpuId> free_cpus;
  for (CpuId cpu = 0; cpu < cpus; ++cpu) {
    free_cpus.push_back(cpu);
  }

  const auto add_thread = [&] {
    const ThreadId tid = m.next_tid++;
    const auto weight = static_cast<Weight>(rng.UniformInt(1, 20));
    if (route_classes) {
      const ClassId cls = static_cast<ClassId>(tid % 4);  // 0 = root
      static_cast<HierarchicalSfs*>(a)->RouteThread(tid, cls);
      static_cast<HierarchicalSfs*>(b)->RouteThread(tid, cls);
    }
    a->AddThread(tid, weight);
    b->AddThread(tid, weight);
    m.runnable.push_back(tid);
  };

  const auto charge = [&](std::size_t run_idx) {
    const auto [tid, cpu] = m.running[run_idx];
    m.running.erase(m.running.begin() + static_cast<std::ptrdiff_t>(run_idx));
    const Tick ran = Msec(rng.UniformInt(1, 200));
    a->Charge(tid, ran);
    b->Charge(tid, ran);
    free_cpus.push_back(cpu);
    std::sort(free_cpus.begin(), free_cpus.end());
    m.runnable.push_back(tid);
  };

  add_thread();
  add_thread();

  for (int op = 0; op < ops; ++op) {
    const auto choice = rng.UniformInt(0, 9);
    if (choice <= 1) {
      add_thread();
      // A newly runnable thread may warrant preemption; both backends must
      // agree on the victim.
      std::vector<Tick> elapsed(static_cast<std::size_t>(cpus), 0);
      for (auto& e : elapsed) {
        e = Msec(rng.UniformInt(0, 100));
      }
      const ThreadId woken = m.runnable.back();
      ASSERT_EQ(a->SuggestPreemption(woken, elapsed), b->SuggestPreemption(woken, elapsed))
          << sorted_backend.name() << " seed " << seed << " op " << op;
    } else if (choice == 2 && !m.runnable.empty()) {
      // Kill a runnable (not running) thread.
      const std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(m.runnable.size()) - 1));
      const ThreadId tid = TakeAt(m.runnable, i);
      a->RemoveThread(tid);
      b->RemoveThread(tid);
    } else if (choice == 3 && !m.runnable.empty()) {
      const std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(m.runnable.size()) - 1));
      const ThreadId tid = TakeAt(m.runnable, i);
      a->Block(tid);
      b->Block(tid);
      m.blocked.push_back(tid);
    } else if (choice == 4 && !m.blocked.empty()) {
      const std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(m.blocked.size()) - 1));
      const ThreadId tid = TakeAt(m.blocked, i);
      a->Wakeup(tid);
      b->Wakeup(tid);
      m.runnable.push_back(tid);
    } else if (choice == 5 && !(m.runnable.empty() && m.blocked.empty())) {
      auto& pool = (!m.runnable.empty() && (m.blocked.empty() || rng.Bernoulli(0.7)))
                       ? m.runnable
                       : m.blocked;
      const std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
      const auto weight = static_cast<Weight>(rng.UniformInt(1, 20));
      a->SetWeight(pool[i], weight);
      b->SetWeight(pool[i], weight);
    } else if (choice <= 7 && !free_cpus.empty() && !m.runnable.empty()) {
      const CpuId cpu = free_cpus.front();
      free_cpus.erase(free_cpus.begin());
      const ThreadId pa = a->PickNext(cpu);
      const ThreadId pb = b->PickNext(cpu);
      ASSERT_EQ(pa, pb) << sorted_backend.name() << " seed " << seed << " op " << op;
      if (pa == kInvalidThread) {
        free_cpus.push_back(cpu);
        std::sort(free_cpus.begin(), free_cpus.end());
      } else {
        m.running.emplace_back(pa, cpu);
        m.runnable.erase(std::find(m.runnable.begin(), m.runnable.end(), pa));
      }
    } else if (!m.running.empty()) {
      charge(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(m.running.size()) - 1)));
    }
  }

  // Drain and compare final per-thread state.
  while (!m.running.empty()) {
    charge(0);
  }
  for (ThreadId tid = 1; tid < m.next_tid; ++tid) {
    if (!a->Contains(tid)) {
      ASSERT_FALSE(b->Contains(tid));
      continue;
    }
    ASSERT_EQ(a->TotalService(tid), b->TotalService(tid)) << "tid " << tid;
    ASSERT_EQ(a->GetPhi(tid), b->GetPhi(tid)) << "tid " << tid;
    ASSERT_EQ(a->IsRunnable(tid), b->IsRunnable(tid)) << "tid " << tid;
  }
}

// Factory-constructible policies: build one instance per backend and drive.
void DriveLockstep(SchedKind kind, std::uint64_t seed, int ops, int cpus) {
  SchedConfig config;
  config.num_cpus = cpus;
  SchedConfig skip_config = config;
  skip_config.queue_backend = QueueBackend::kSkipList;

  auto a = CreateScheduler(kind, config);
  auto b = CreateScheduler(kind, skip_config);

  if (kind == SchedKind::kHsfs) {
    // Exercise the hierarchy: two surplus classes and one round-robin class,
    // threads routed round-robin among root and the classes.
    for (Scheduler* s : {a.get(), b.get()}) {
      auto* h = static_cast<HierarchicalSfs*>(s);
      h->CreateClass(1, kRootClass, 4.0);
      h->CreateClass(2, kRootClass, 2.0);
      h->CreateClass(3, 1, 1.0, IntraClassPolicy::kRoundRobin);
    }
  }
  DriveLockstepOn(*a, *b, kind == SchedKind::kHsfs, seed, ops, cpus);
}

class BackendDifferentialTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(BackendDifferentialTest, DispatchTracesIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {1ULL, 23ULL, 777ULL}) {
    DriveLockstep(GetParam(), seed, /*ops=*/1500, /*cpus=*/2);
    DriveLockstep(GetParam(), seed, /*ops=*/800, /*cpus=*/4);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMigrated, BackendDifferentialTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kSfq, SchedKind::kWfq,
                                           SchedKind::kHsfs),
                         [](const ::testing::TestParamInfo<SchedKind>& info) {
                           return std::string(SchedKindName(info.param));
                         });

TEST(BackendDifferentialSpecialTest, HeuristicSfsTracesIdenticalAcrossBackends) {
  // The Section 3.2 heuristic is the only caller of the queues' bounded scans
  // (ForFirstK on start/surplus, ForLastK on the weight queue) and of the
  // periodic refresh; it must be backend-invariant too.
  for (const std::uint64_t seed : {5ULL, 99ULL}) {
    SchedConfig config;
    config.num_cpus = 2;
    config.heuristic_k = 3;
    config.heuristic_refresh_period = 16;
    SchedConfig skip_config = config;
    skip_config.queue_backend = QueueBackend::kSkipList;
    Sfs a(config);
    Sfs b(skip_config);
    DriveLockstepOn(a, b, /*route_classes=*/false, seed, /*ops=*/1500, /*cpus=*/2);
  }
}

TEST(BackendDifferentialSpecialTest, PartitionedSfqTracesIdenticalAcrossBackends) {
  // Not factory-constructible (extra rebalance knob), but migrated onto the
  // RunQueue abstraction all the same: per-partition queues plus the periodic
  // rebalancing move pattern must be backend-invariant.
  for (const std::uint64_t seed : {11ULL, 42ULL}) {
    SchedConfig config;
    config.num_cpus = 4;
    SchedConfig skip_config = config;
    skip_config.queue_backend = QueueBackend::kSkipList;
    PartitionedSfq a(config, /*rebalance_every=*/32);
    PartitionedSfq b(skip_config, /*rebalance_every=*/32);
    DriveLockstepOn(a, b, /*route_classes=*/false, seed, /*ops=*/1200, /*cpus=*/4);
  }
}

}  // namespace
}  // namespace sfs::sched
