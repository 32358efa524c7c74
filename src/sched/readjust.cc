#include "src/sched/readjust.h"

#include <algorithm>
#include <utility>

#include "src/common/assert.h"

namespace sfs::sched {

void ReadjustState::Forget(Entity& e) {
  if (!e.capped) {
    return;
  }
  e.capped = false;
  for (std::size_t i = 0; i < capped.size(); ++i) {
    if (capped[i] == &e) {
      capped[i] = capped.back();
      capped.pop_back();
      return;
    }
  }
  SFS_CHECK(false);  // flag set but not tracked
}

bool ReadjustQueue(WeightQueue& queue, double total_weight, int num_cpus,
                   ReadjustState& state) {
  SFS_CHECK(num_cpus >= 1);
  const std::size_t t = queue.size();
  state.changed.clear();
  auto set_phi = [&state](Entity* e, double phi) {
    if (e->phi() != phi) {
      e->phi() = phi;
      state.changed.push_back(e);
    }
  };

  // Determine the capped prefix: how many of the heaviest threads violate the
  // feasibility constraint, and the instantaneous weight they all receive.
  std::size_t new_capped = 0;
  double phi_cap = 0.0;
  bool split = false;  // the prefix ends inside the run of weight `split_weight`
  Weight split_weight = 0.0;
  if (t == 0) {
    new_capped = 0;
  } else if (t <= static_cast<std::size_t>(num_cpus)) {
    // Every runnable thread can consume a full processor; cap all shares at 1/p
    // by making the instantaneous weights equal.
    new_capped = t;
    phi_cap = 1.0;
  } else {
    // Walk the queue front-to-back (largest weights first).  Thread k (0-based)
    // is infeasible iff  w_k / rem_sum > 1 / (p - k)  where rem_sum sums the
    // original weights from k onward.  The loop exits at the first feasible
    // thread — all smaller weights are feasible too — and cannot cap more than
    // p-1 threads because at k = p-1 the test becomes w > rem_sum, impossible.
    double rem_sum = total_weight;
    Entity* cursor = queue.front();
    Weight last_capped = 0.0;
    while (cursor != nullptr) {
      const auto rem_cpus = static_cast<double>(num_cpus) - static_cast<double>(new_capped);
      if (rem_cpus <= 1.0) {
        break;
      }
      if (cursor->weight() * rem_cpus > rem_sum) {
        rem_sum -= cursor->weight();
        ++new_capped;
        last_capped = cursor->weight();
        cursor = queue.next(cursor);
      } else {
        break;
      }
    }
    // Every capped thread receives the same instantaneous weight T / (p - k):
    // each then holds a share of exactly 1/p.  Feasible threads keep w_i.
    phi_cap = new_capped > 0
                  ? rem_sum / (static_cast<double>(num_cpus) - static_cast<double>(new_capped))
                  : 0.0;
    // In exact arithmetic a capped thread's equal-weight successor is capped
    // too (w * r > R implies w * (r - 1) > R - w), so the prefix is whole runs
    // of equal weight, and which members a run lists first does not matter.
    // Rounding can still end it inside a run; then it holds that run's
    // lowest tids, as in a queue ordered by (weight, tid).
    split = cursor != nullptr && new_capped > 0 && cursor->weight() == last_capped;
    split_weight = last_capped;
  }

  // Swap out the previous cap set, then mark and weight the new prefix.
  std::swap(state.capped, state.scratch);
  state.capped.clear();
  for (Entity* e : state.scratch) {
    e->capped = false;
  }
  auto cap = [&](Entity* e) {
    set_phi(e, phi_cap);
    e->capped = true;
    state.capped.push_back(e);
  };
  std::size_t index = 0;
  Entity* member = queue.front();
  for (; index < new_capped && !(split && member->weight() == split_weight);
       member = queue.next(member), ++index) {
    cap(member);
  }
  if (index < new_capped) {
    std::vector<Entity*>& run = state.split_run;
    run.clear();
    for (; member != nullptr && member->weight() == split_weight; member = queue.next(member)) {
      run.push_back(member);
    }
    const auto lowest = run.begin() + static_cast<std::ptrdiff_t>(new_capped - index);
    std::nth_element(run.begin(), lowest, run.end(),
                     [](const Entity* a, const Entity* b) { return a->tid < b->tid; });
    std::for_each(run.begin(), lowest, cap);
  }
  // Threads that fell out of the cap set go back to their requested weight;
  // never-capped threads already carry it ("weights of threads that satisfy the
  // feasibility constraint never change").
  for (Entity* e : state.scratch) {
    if (!e->capped) {
      set_phi(e, e->weight());
    }
  }
  state.scratch.clear();
  return !state.changed.empty();
}

bool IsFeasible(const WeightQueue& queue, double total_weight, int num_cpus) {
  const Entity* heaviest = queue.front();
  if (heaviest == nullptr) {
    return true;
  }
  // Equation 1 for the largest weight; all smaller weights request smaller shares.
  return heaviest->weight() * static_cast<double>(num_cpus) <= total_weight;
}

}  // namespace sfs::sched
