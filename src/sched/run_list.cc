#include "src/sched/run_list.h"

#include <algorithm>

namespace sfs::sched {

std::size_t RunIndex::FindInner(double key, std::int64_t* probes) const {
  // The answer lies in [1, size - 1] (Find probed both ends):
  // std::lower_bound without a branch on the probed key (each probe halves
  // n).
  const Run* const begin = data() + first_;
  const Run* base = begin + 1;
  std::size_t n = size() - 2;
  std::int64_t count = 3;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half - 1].key < key ? base + half : base;
    n -= half;
    ++count;
  }
  Count(probes, count);
  return static_cast<std::size_t>(base - begin) + (base->key < key ? 1 : 0);
}

void RunIndex::InsertShifting(std::size_t pos, Run run) {
  const std::size_t n = size();
  const bool front_half = pos < n / 2;
  if (front_half ? first_ == 0 : last_ == capacity_) {
    Recenter(n + 1);
  }
  Run* const base = data() + first_;
  if (front_half) {
    std::copy(base, base + pos, base - 1);
    --first_;
  } else {
    std::copy_backward(base + pos, base + n, base + n + 1);
    ++last_;
  }
  (*this)[pos] = run;
}

void RunIndex::EraseShifting(std::size_t pos) {
  Run* const base = data() + first_;
  if (pos < size() / 2) {
    std::copy_backward(base, base + pos, base + pos + 1);
    ++first_;
  } else {
    std::copy(base + pos + 1, data() + last_, base + pos);
    --last_;
  }
}

void RunIndex::Recenter(std::size_t runs) {
  const std::size_t n = size();
  Run* const begin = data() + first_;
  if (capacity_ < 2 * runs + 8) {
    const std::size_t capacity = 2 * runs + 8;
    auto grown = std::make_unique<Run[]>(capacity);
    const std::size_t first = (capacity - n) / 2;
    std::copy(begin, begin + n, grown.get() + first);
    heap_ = std::move(grown);
    capacity_ = static_cast<std::uint32_t>(capacity);
    first_ = static_cast<std::uint32_t>(first);
  } else {
    const std::size_t first = (capacity_ - n) / 2;
    if (first < first_) {
      std::copy(begin, begin + n, data() + first);
    } else {
      std::copy_backward(begin, begin + n, data() + first + n);
    }
    first_ = static_cast<std::uint32_t>(first);
  }
  last_ = static_cast<std::uint32_t>(first_ + n);
}

}  // namespace sfs::sched
