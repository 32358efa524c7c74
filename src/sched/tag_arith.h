// Tag arithmetic policy: exact or kernel-faithful fixed-point (Section 3.2).
//
// The only floating-point operation on the scheduling fast path is the weighted
// service increment q / phi used to advance start/finish tags.  The kernel
// implementation scales it by 10^n and computes in integers; this policy
// reproduces that quantization when configured with a non-negative digit count,
// so the accuracy-vs-scaling-factor trade-off can be measured (ablation A1).

#ifndef SFS_SCHED_TAG_ARITH_H_
#define SFS_SCHED_TAG_ARITH_H_

#include <cmath>
#include <cstdint>

#include "src/common/assert.h"
#include "src/common/fixed_point.h"
#include "src/common/time.h"

namespace sfs::sched {

// Largest fixed-point digit count TagArith accepts (SchedConfig::fixed_point_digits).
inline constexpr int kMaxFixedPointDigits = 8;

class TagArith {
 public:
  // digits < 0: exact double arithmetic.  digits in [0, kMaxFixedPointDigits]:
  // emulate the kernel's 10^digits scaling factor.
  explicit TagArith(int digits) : digits_(digits), scale_(Scale(digits)) {}

  bool fixed_point() const { return digits_ >= 0; }
  std::int64_t scale() const { return scale_; }

  // Weighted service increment q / phi.  In fixed-point mode the result is a
  // multiple of 10^-digits, computed exactly as the kernel would:
  //   F_raw = S_raw + (q * 10^n) / phi_raw.
  double WeightedService(Tick q, double phi) const {
    SFS_DCHECK(phi > 0);
    if (digits_ < 0) {
      return static_cast<double>(q) / phi;
    }
    std::int64_t phi_raw = std::llround(phi * static_cast<double>(scale_));
    if (phi_raw < 1) {
      phi_raw = 1;  // weights below the representable minimum saturate
    }
    // increment_raw = q * scale^2 / phi_raw; 128-bit intermediate in ScaledDiv.
    const std::int64_t raw = common::ScaledDiv(q * scale_, scale_, phi_raw);
    return static_cast<double>(raw) / static_cast<double>(scale_);
  }

 private:
  // Checked before Pow10, which overflows int64 from 19 digits up.
  static std::int64_t Scale(int digits) {
    SFS_CHECK(digits <= kMaxFixedPointDigits);
    return digits >= 0 ? common::Pow10(digits) : 1;
  }

  int digits_;
  std::int64_t scale_;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_TAG_ARITH_H_
