// Verbatim transcription of the paper's Figure 2 readjustment recursion, the
// parity oracle for sched::ReadjustQueue and for the GMS fluid reference.
//
// It recomputes the suffix sum at every level, O(capped * n), and assigns
// each capped thread bottom-up from the readjusted weights after it, so with
// two or more caps its values can differ from ReadjustQueue's single
// T / (p - k) in the final ulp.

#ifndef SFS_TESTS_SCHED_FIGURE2_REFERENCE_H_
#define SFS_TESTS_SCHED_FIGURE2_REFERENCE_H_

#include <cstddef>
#include <vector>

namespace sfs::sched {

inline void Figure2Recursive(std::vector<double>& weights, std::size_t i, int p) {
  if (i >= weights.size() || p <= 1) {
    return;
  }
  double suffix = 0.0;
  for (std::size_t j = i; j < weights.size(); ++j) {
    suffix += weights[j];
  }
  if (weights[i] * static_cast<double>(p) > suffix) {
    Figure2Recursive(weights, i + 1, p - 1);
    double sum_after = 0.0;
    for (std::size_t j = i + 1; j < weights.size(); ++j) {
      sum_after += weights[j];
    }
    weights[i] = sum_after / static_cast<double>(p - 1);
  }
}

// The instantaneous weights for `weights`, sorted in descending order, on
// `num_cpus` processors, in the same order.  With at most p threads every
// thread can hold a full processor, so all get equal weights.
inline std::vector<double> Figure2Reference(const std::vector<double>& weights, int num_cpus) {
  std::vector<double> result = weights;
  if (result.size() <= static_cast<std::size_t>(num_cpus)) {
    for (auto& w : result) {
      w = 1.0;
    }
    return result;
  }
  Figure2Recursive(result, 0, num_cpus);
  return result;
}

}  // namespace sfs::sched

#endif  // SFS_TESTS_SCHED_FIGURE2_REFERENCE_H_
