#include "src/sched/gps_base.h"

namespace sfs::sched {

Entity* GpsSchedulerBase::PickMigrationCandidate(double max_weight, double* score) {
  Entity* best = nullptr;
  double best_score = 0.0;
  // Hoisted: one virtual call per scan, not one per thread.
  const double v = LocalVirtualTime();
  for (Entity* e = weight_queue_.front(); e != nullptr; e = weight_queue_.next(e)) {
    if (e->running || (max_weight > 0.0 && e->weight() >= max_weight)) {
      continue;
    }
    const double entity_score = e->phi() * (e->start_tag() - v);
    // Total order on (score, -tid): the choice does not depend on queue order.
    if (best == nullptr || entity_score > best_score ||
        (entity_score == best_score && e->tid < best->tid)) {
      best = e;
      best_score = entity_score;
    }
  }
  if (best != nullptr && score != nullptr) {
    *score = best_score;
  }
  return best;
}

const Entity* GpsSchedulerBase::FindRunnable(ThreadId tid) const {
  for (const Entity* e = weight_queue_.front(); e != nullptr; e = weight_queue_.next(e)) {
    if (e->tid == tid) {
      return e;
    }
  }
  return nullptr;
}

std::string GpsSchedulerBase::CheckWeightQueue() const {
  if (weight_queue_.size() != static_cast<std::size_t>(runnable_count())) {
    return "the weight queue holds " + std::to_string(weight_queue_.size()) + " threads, " +
           std::to_string(runnable_count()) + " are runnable";
  }
  for (const Entity* e = weight_queue_.front(); e != nullptr; e = weight_queue_.next(e)) {
    if (!e->runnable) {
      return "weight queue holds blocked thread " + std::to_string(e->tid);
    }
  }
  return weight_queue_.CheckIndex();
}

}  // namespace sfs::sched
