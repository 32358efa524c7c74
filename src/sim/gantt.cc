#include "src/sim/gantt.h"

#include <algorithm>
#include <map>

#include "src/common/assert.h"

namespace sfs::sim {

namespace {

// Calls fn(start, length, tid) for every kRun record of the CPU rings.
template <typename Fn>
void ForEachRun(const obs::Trace& trace, Fn&& fn) {
  for (int cpu = 0; cpu < trace.num_cpus(); ++cpu) {
    trace.ring(cpu).ForEach([&](const obs::TraceRecord& record) {
      if (record.kind == obs::TraceEventKind::kRun) {
        fn(record.ts, record.arg, static_cast<sched::ThreadId>(record.tid));
      }
    });
  }
}

}  // namespace

std::string RenderGantt(const obs::Trace& trace, const GanttOptions& options) {
  SFS_CHECK(options.width > 0);
  for (int cpu = 0; cpu < trace.num_cpus(); ++cpu) {
    SFS_CHECK(trace.ring(cpu).dropped() == 0);
  }
  Tick to = options.to;
  if (to == 0) {
    ForEachRun(trace, [&to](Tick start, Tick length, sched::ThreadId) {
      to = std::max(to, start + length);
    });
  }
  const Tick from = options.from;
  if (to <= from) {
    return "";
  }
  const double slice = static_cast<double>(to - from) / options.width;

  // Per-requested-thread occupancy per column.
  std::map<sched::ThreadId, std::vector<double>> occupancy;
  for (const auto& [tid, label] : options.rows) {
    occupancy[tid].assign(static_cast<std::size_t>(options.width), 0.0);
  }
  ForEachRun(trace, [&](Tick start, Tick length, sched::ThreadId tid) {
    auto it = occupancy.find(tid);
    if (it == occupancy.end()) {
      return;
    }
    const Tick lo = std::max(from, start);
    const Tick hi = std::min(to, start + length);
    if (hi <= lo) {
      return;
    }
    auto first = static_cast<int>(static_cast<double>(lo - from) / slice);
    auto last = static_cast<int>(static_cast<double>(hi - from - 1) / slice);
    first = std::clamp(first, 0, options.width - 1);
    last = std::clamp(last, 0, options.width - 1);
    for (int col = first; col <= last; ++col) {
      const double col_lo = static_cast<double>(from) + slice * col;
      const double col_hi = col_lo + slice;
      const double overlap = std::min(static_cast<double>(hi), col_hi) -
                             std::max(static_cast<double>(lo), col_lo);
      if (overlap > 0) {
        it->second[static_cast<std::size_t>(col)] += overlap / slice;
      }
    }
  });

  std::size_t label_width = 0;
  for (const auto& [tid, label] : options.rows) {
    label_width = std::max(label_width, label.size());
  }

  std::string out;
  for (const auto& [tid, label] : options.rows) {
    out += label;
    out.append(label_width - label.size(), ' ');
    out += " |";
    for (double x : occupancy[tid]) {
      if (x < 0.01) {
        out += ' ';
      } else if (x < 0.25) {
        out += '.';
      } else if (x < 0.75) {
        out += ':';
      } else {
        out += '#';
      }
    }
    out += "|\n";
  }
  return out;
}

}  // namespace sfs::sim
