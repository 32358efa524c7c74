// Integer fixed-point arithmetic emulating the paper's in-kernel implementation.
//
// Section 3.2: "the Linux kernel supports only integer variables ... we simulate
// floating point variables using integer variables. To do so we scale each floating
// point operation in SFS by a constant factor [10^n] ... we found a scaling factor of
// 10^4 to be adequate for most purposes."
//
// `ScaledDiv`/`Pow10` are free helpers for runtime-selected scaling factors, used by
// the scheduler's TagArith policy so that the scaling factor can be swept at run
// time (ablation A1).  Intermediate products go through 128-bit arithmetic so that
// the only rounding is the deliberate quantization to 10^-digits.

#ifndef SFS_COMMON_FIXED_POINT_H_
#define SFS_COMMON_FIXED_POINT_H_

#include <cstdint>

#include "src/common/assert.h"

namespace sfs::common {

// 10^digits for digits in [0, 18].
constexpr std::int64_t Pow10(int digits) {
  std::int64_t v = 1;
  for (int i = 0; i < digits; ++i) {
    v *= 10;
  }
  return v;
}

// Computes round(num * scale / den) entirely in integers, the core operation behind
// the kernel's F = S + q*10^n / w update.  `den` must be positive.
constexpr std::int64_t ScaledDiv(std::int64_t num, std::int64_t scale, std::int64_t den) {
  SFS_DCHECK(den > 0);
  const __int128 wide = static_cast<__int128>(num) * scale;
  const __int128 half = den / 2;
  const __int128 q = (wide >= 0) ? (wide + half) / den : (wide - half) / den;
  return static_cast<std::int64_t>(q);
}

}  // namespace sfs::common

#endif  // SFS_COMMON_FIXED_POINT_H_
