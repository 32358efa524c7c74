#include "src/sched/wfq.h"

#include <algorithm>

namespace sfs::sched {

Wfq::Wfq(const SchedConfig& config) : GpsSchedulerBase(config) {}

Wfq::~Wfq() { queue_.Clear(); }

double Wfq::VirtualTime() const {
  // Minimum start tag over runnable threads; the queue is ordered by finish tag,
  // so scan (runnable sets are the same threads; start order ~ finish order).
  const Entity* best = nullptr;
  for (const Entity* e = queue_.front(); e != nullptr; e = queue_.next(e)) {
    if (best == nullptr || e->start_tag() < best->start_tag()) {
      best = e;
    }
  }
  return best == nullptr ? idle_virtual_time_ : best->start_tag();
}

double Wfq::PredictFinish(const Entity& e) const {
  return e.start_tag() + arith().WeightedService(config().quantum, e.phi());
}

void Wfq::RepredictAll() {
  queue_.Clear();
  // The weight queue holds exactly the runnable threads.
  for (Entity* it = weight_queue().front(); it != nullptr; it = weight_queue().next(it)) {
    it->finish_tag() = PredictFinish(*it);
    queue_.InsertByTid(it);
  }
}

void Wfq::OnAdmit(Entity& e) {
  e.start_tag() = VirtualTime();
  if (AdmitWeight(e)) {
    RepredictAll();  // phi changed for some threads; files e too
    return;
  }
  e.finish_tag() = PredictFinish(e);
  queue_.InsertByTid(&e);
}

void Wfq::OnRemove(Entity& e) {
  if (e.runnable) {
    queue_.Erase(&e, e.finish_tag());
    if (RetireWeight(e)) {
      RepredictAll();
    }
  }
}

void Wfq::OnBlocked(Entity& e) {
  queue_.Erase(&e, e.finish_tag());
  if (RetireWeight(e)) {
    RepredictAll();
  }
  if (queue_.empty()) {
    idle_virtual_time_ = std::max(idle_virtual_time_, e.start_tag());
  }
}

void Wfq::OnWoken(Entity& e) {
  e.start_tag() = std::max(e.start_tag(), VirtualTime());
  if (AdmitWeight(e)) {
    RepredictAll();  // as in OnAdmit: files e too
    return;
  }
  e.finish_tag() = PredictFinish(e);
  queue_.InsertByTid(&e);
}

void Wfq::OnWeightChanged(Entity& e, Weight old_weight) {
  if (UpdateWeight(e, old_weight) && e.runnable) {
    RepredictAll();
  }
}

Entity* Wfq::PickNextEntity(CpuId cpu) {
  (void)cpu;
  for (Entity* e = queue_.front(); e != nullptr; e = queue_.next(e)) {
    if (!e->running) {
      return e;
    }
  }
  return nullptr;
}

void Wfq::OnCharge(Entity& e, Tick ran_for) {
  // Correct the prediction with the actual service used, then re-predict for the
  // next dispatch.
  queue_.Erase(&e, e.finish_tag());  // unfiled by the key it was filed with
  e.start_tag() += arith().WeightedService(ran_for, e.phi());
  e.finish_tag() = PredictFinish(e);
  queue_.InsertByTid(&e);
  if (queue_.size() == 1) {
    idle_virtual_time_ = std::max(idle_virtual_time_, e.start_tag());
  }
}

CpuId Wfq::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& w = FindEntity(woken);
  if (!w.runnable || w.running) {
    return kInvalidCpu;
  }
  CpuId victim = kInvalidCpu;
  double worst = w.finish_tag();
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const ThreadId running = RunningOn(cpu);
    if (running == kInvalidThread) {
      continue;
    }
    const Entity& r = FindEntity(running);
    const double tag =
        r.finish_tag() + arith().WeightedService(elapsed[static_cast<std::size_t>(cpu)], r.phi());
    if (tag > worst) {
      worst = tag;
      victim = cpu;
    }
  }
  return victim;
}

}  // namespace sfs::sched
