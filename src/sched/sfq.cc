#include "src/sched/sfq.h"

#include <algorithm>

namespace sfs::sched {

Sfq::Sfq(const SchedConfig& config) : GpsSchedulerBase(config) {}

Sfq::~Sfq() { queue_.Clear(); }

double Sfq::VirtualTime() const {
  const Entity* head = queue_.front();
  return head == nullptr ? idle_virtual_time_ : head->start_tag();
}

void Sfq::OnAdmit(Entity& e) {
  // "Newly arriving threads are assigned the minimum value of S_i over all
  // runnable threads" (Example 1).
  e.start_tag() = VirtualTime();
  e.finish_tag() = e.start_tag();
  AdmitWeight(e);
  queue_.InsertByTid(&e);
}

void Sfq::OnRemove(Entity& e) {
  if (e.runnable) {
    queue_.Erase(&e, e.start_tag());
    RetireWeight(e);
  }
}

void Sfq::OnBlocked(Entity& e) {
  queue_.Erase(&e, e.start_tag());
  RetireWeight(e);
  if (queue_.empty()) {
    idle_virtual_time_ = std::max(idle_virtual_time_, e.finish_tag());
  }
}

void Sfq::OnWoken(Entity& e) {
  e.start_tag() = std::max(e.finish_tag(), VirtualTime());
  AdmitWeight(e);
  queue_.InsertByTid(&e);
}

void Sfq::OnWeightChanged(Entity& e, Weight old_weight) { UpdateWeight(e, old_weight); }

void Sfq::OnAttach(Entity& e) {
  // Migrated entity: keep the translated start tag (no wakeup-style clamp).
  AdmitWeight(e);
  queue_.InsertByTid(&e);
}

Entity* Sfq::PickNextEntity(CpuId cpu) {
  (void)cpu;
  for (Entity* e = queue_.front(); e != nullptr; e = queue_.next(e)) {
    if (!e->running) {
      return e;
    }
  }
  return nullptr;
}

void Sfq::OnCharge(Entity& e, Tick ran_for) {
  queue_.Erase(&e, e.start_tag());  // unfiled by the key it was filed with
  e.finish_tag() = e.start_tag() + arith().WeightedService(ran_for, e.phi());
  e.start_tag() = e.finish_tag();
  queue_.InsertByTid(&e);
  if (queue_.size() == 1) {
    idle_virtual_time_ = std::max(idle_virtual_time_, e.finish_tag());
  }
}

CpuId Sfq::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& w = FindEntity(woken);
  if (!w.runnable || w.running) {
    return kInvalidCpu;
  }
  CpuId victim = kInvalidCpu;
  double worst = w.start_tag();
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const ThreadId running = RunningOn(cpu);
    if (running == kInvalidThread) {
      continue;
    }
    const Entity& r = FindEntity(running);
    // Start tag the runner would have if charged now.
    const double tag =
        r.start_tag() + arith().WeightedService(elapsed[static_cast<std::size_t>(cpu)], r.phi());
    if (tag > worst) {
      worst = tag;
      victim = cpu;
    }
  }
  return victim;
}

}  // namespace sfs::sched
