// FNV-1a fingerprint accumulator for deterministic schedule/trace hashes.
//
// Every experiment that asserts "these two runs made identical decisions"
// mixes the run-interval or lifecycle event stream through MixRun and
// MixEvent, so the constants and the field order live in one place and the
// JSON hex rendering is uniform across experiments.

#ifndef SFS_COMMON_FINGERPRINT_H_
#define SFS_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace sfs::common {

class Fnv1a {
 public:
  void Mix(std::uint64_t x) {
    value_ ^= x;
    value_ *= 1099511628211ULL;  // FNV-1a 64-bit prime
  }

  // One run interval of a schedule: its start, length, processor and thread.
  void MixRun(std::int64_t start, std::int64_t len, std::int64_t cpu, std::int64_t tid) {
    Mix(static_cast<std::uint64_t>(start));
    Mix(static_cast<std::uint64_t>(len));
    Mix(static_cast<std::uint64_t>(cpu));
    Mix(static_cast<std::uint64_t>(tid));
  }

  // One scheduler-visible lifecycle event (sim::SchedEvent): its kind, its
  // thread and when it happened.
  template <typename Event>
  void MixEvent(Event event, std::int64_t tid, std::int64_t now) {
    Mix(static_cast<std::uint64_t>(event));
    Mix(static_cast<std::uint64_t>(tid));
    Mix(static_cast<std::uint64_t>(now));
  }

  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 1469598103934665603ULL;  // FNV-1a 64-bit offset basis
};

// Canonical JSON rendering: "0x" + 16 lowercase hex digits.
inline std::string FingerprintHex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace sfs::common

#endif  // SFS_COMMON_FINGERPRINT_H_
