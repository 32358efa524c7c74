#include "src/eval/gms.h"

#include <algorithm>

#include "src/common/assert.h"

namespace sfs::eval {

using sched::Entity;
using sched::ThreadId;
using sched::Weight;

GmsReference::GmsReference(int num_cpus) : num_cpus_(num_cpus) { SFS_CHECK(num_cpus >= 1); }

void GmsReference::AddThread(ThreadId tid, Weight weight, Tick now) {
  SFS_CHECK(sched::IsValidWeight(weight));
  AdvanceTo(now);
  auto [it, inserted] = members_.try_emplace(tid);
  SFS_CHECK(inserted);
  Member& m = it->second;
  m.tid = tid;
  m.weight() = weight;
  File(m);
}

void GmsReference::RemoveThread(ThreadId tid, Tick now) {
  AdvanceTo(now);
  Member& m = Find(tid);
  SFS_CHECK(!m.departed);
  m.departed = true;
  if (m.runnable) {
    Unfile(m);
  }
}

void GmsReference::Block(ThreadId tid, Tick now) {
  AdvanceTo(now);
  Member& m = Find(tid);
  SFS_CHECK(m.runnable);
  Unfile(m);
}

void GmsReference::Wakeup(ThreadId tid, Tick now) {
  AdvanceTo(now);
  Member& m = Find(tid);
  SFS_CHECK(!m.runnable && !m.departed);
  File(m);
}

void GmsReference::SetWeight(ThreadId tid, Weight weight, Tick now) {
  SFS_CHECK(sched::IsValidWeight(weight));
  AdvanceTo(now);
  Member& m = Find(tid);
  if (m.runnable) {
    runnable_.Erase(&m, sched::ByWeightDesc::RunKey(m));  // the key it was filed with
    m.weight() = weight;
    runnable_.Append(&m);
  } else {
    m.weight() = weight;
  }
  // A capped thread's phi is recomputed by the next pass.
  if (!m.capped) {
    m.phi() = weight;
  }
  rates_dirty_ = true;
}

void GmsReference::AdvanceTo(Tick now) {
  SFS_CHECK(now >= last_advance_);
  const double dt = static_cast<double>(now - last_advance_);
  if (dt > 0) {
    // Rates dirtied by the event batch at last_advance_ apply from that
    // instant on; refresh them before integrating over the interval.
    EnsureRates();
    for (Entity* e = runnable_.front(); e != nullptr; e = runnable_.next(e)) {
      Member& m = static_cast<Member&>(*e);
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
  return Find(tid).phi();
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

void GmsReference::File(Member& m) {
  m.runnable = true;
  m.phi() = m.weight();
  runnable_.Append(&m);
  rates_dirty_ = true;
}

void GmsReference::Unfile(Member& m) {
  runnable_.Erase(&m, sched::ByWeightDesc::RunKey(m));
  readjust_.Forget(m);
  m.runnable = false;
  m.rate = 0.0;
  rates_dirty_ = true;
}

void GmsReference::EnsureRates() const {
  if (!rates_dirty_) {
    return;
  }
  rates_dirty_ = false;
  if (runnable_.empty()) {
    return;
  }
  // Both sums walk the queue, heaviest first.  Its runs of equal weight hold
  // equal phis outside a run that rounding splits, so the sums add the same
  // values in the same order as a walk in (weight, tid) order would.
  double weight_sum = 0.0;
  for (const Entity* e = runnable_.front(); e != nullptr; e = runnable_.next(e)) {
    weight_sum += e->weight();
  }
  sched::ReadjustQueue(runnable_, weight_sum, num_cpus_, readjust_);
  double phi_sum = 0.0;
  for (const Entity* e = runnable_.front(); e != nullptr; e = runnable_.next(e)) {
    phi_sum += e->phi();
  }
  SFS_CHECK(phi_sum > 0);
  for (Entity* e = runnable_.front(); e != nullptr; e = runnable_.next(e)) {
    static_cast<Member&>(*e).rate =
        std::min(1.0, static_cast<double>(num_cpus_) * e->phi() / phi_sum);
  }
}

}  // namespace sfs::eval
