// Fairness metrics.
//
// Quantifies what the paper's figures show qualitatively: proportional-share
// error relative to GMS (Equations 2-3), Jain's fairness index over normalized
// services, and starvation windows (the Figure 1/4(a) pathology).

#ifndef SFS_METRICS_FAIRNESS_H_
#define SFS_METRICS_FAIRNESS_H_

#include <vector>

#include "src/common/time.h"

namespace sfs::metrics {

// Jain's fairness index over x_i = A_i / phi_i; 1.0 = perfectly proportional.
double JainIndex(const std::vector<double>& services, const std::vector<double>& phis);

// Largest absolute deviation |A_i - A_i^GMS| (the paper's surplus, Equation 3).
double MaxGmsDeviation(const std::vector<double>& actual, const std::vector<double>& fluid);

// Longest run of consecutive zero increments in a sampled cumulative-service
// series, in ticks (`period` = sampling period).  A starving thread (Figure
// 4(a)) shows a window comparable to the starvation duration; a fairly treated
// thread shows ~0.
Tick LongestStarvation(const std::vector<Tick>& cumulative_series, Tick period);

}  // namespace sfs::metrics

#endif  // SFS_METRICS_FAIRNESS_H_
