#include "src/sched/gms.h"

#include <algorithm>
#include <vector>

#include "src/common/assert.h"
#include "src/sched/readjust.h"

namespace sfs::sched {

GmsReference::GmsReference(int num_cpus) : num_cpus_(num_cpus) { SFS_CHECK(num_cpus >= 1); }

void GmsReference::AddThread(ThreadId tid, Weight weight, Tick now) {
  SFS_CHECK(IsValidWeight(weight));
  AdvanceTo(now);
  auto [it, inserted] = members_.emplace(tid, Member{});
  SFS_CHECK(inserted);
  it->second.weight = weight;
  it->second.runnable = true;
  rates_dirty_ = true;
}

void GmsReference::RemoveThread(ThreadId tid, Tick now) {
  AdvanceTo(now);
  Member& m = Find(tid);
  SFS_CHECK(!m.departed);
  m.departed = true;
  m.runnable = false;
  m.rate = 0.0;
  rates_dirty_ = true;
}

void GmsReference::Block(ThreadId tid, Tick now) {
  AdvanceTo(now);
  Member& m = Find(tid);
  SFS_CHECK(m.runnable);
  m.runnable = false;
  m.rate = 0.0;
  rates_dirty_ = true;
}

void GmsReference::Wakeup(ThreadId tid, Tick now) {
  AdvanceTo(now);
  Member& m = Find(tid);
  SFS_CHECK(!m.runnable && !m.departed);
  m.runnable = true;
  rates_dirty_ = true;
}

void GmsReference::SetWeight(ThreadId tid, Weight weight, Tick now) {
  SFS_CHECK(IsValidWeight(weight));
  AdvanceTo(now);
  Find(tid).weight = weight;
  rates_dirty_ = true;
}

void GmsReference::AdvanceTo(Tick now) {
  SFS_CHECK(now >= last_advance_);
  const double dt = static_cast<double>(now - last_advance_);
  if (dt > 0) {
    // Rates dirtied by the event batch at last_advance_ apply from that
    // instant on; refresh them before integrating over the interval.
    EnsureRates();
    for (auto& [tid, m] : members_) {
      m.service += m.rate * dt;
    }
  }
  last_advance_ = now;
}

double GmsReference::Service(ThreadId tid) const { return Find(tid).service; }

double GmsReference::Rate(ThreadId tid) const {
  EnsureRates();
  return Find(tid).rate;
}

double GmsReference::Phi(ThreadId tid) const {
  EnsureRates();
  return Find(tid).phi;
}

GmsReference::Member& GmsReference::Find(ThreadId tid) {
  auto it = members_.find(tid);
  SFS_CHECK(it != members_.end());
  return it->second;
}

const GmsReference::Member& GmsReference::Find(ThreadId tid) const {
  auto it = members_.find(tid);
  SFS_CHECK(it != members_.end());
  return it->second;
}

void GmsReference::EnsureRates() const {
  if (!rates_dirty_) {
    return;
  }
  rates_dirty_ = false;
  // Collect the runnable set sorted by descending weight (stable on tid so that
  // the readjusted assignment is deterministic).
  std::vector<std::pair<ThreadId, Member*>> runnable;
  runnable.reserve(members_.size());
  for (auto& [tid, m] : members_) {
    if (m.runnable) {
      runnable.emplace_back(tid, &m);
    }
  }
  if (runnable.empty()) {
    return;
  }
  std::sort(runnable.begin(), runnable.end(), [](const auto& a, const auto& b) {
    if (a.second->weight != b.second->weight) {
      return a.second->weight > b.second->weight;
    }
    return a.first < b.first;
  });

  std::vector<double> weights;
  weights.reserve(runnable.size());
  for (const auto& [tid, m] : runnable) {
    weights.push_back(m->weight);
  }
  const std::vector<double> phi = ReadjustVector(weights, num_cpus_);

  double phi_sum = 0.0;
  for (double f : phi) {
    phi_sum += f;
  }
  SFS_CHECK(phi_sum > 0);
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    Member& m = *runnable[i].second;
    m.phi = phi[i];
    m.rate = std::min(1.0, static_cast<double>(num_cpus_) * phi[i] / phi_sum);
  }
}

}  // namespace sfs::sched
