// ASCII Gantt rendering of schedule traces.
//
// Turns the run intervals an engine records in its obs::Trace into a
// per-thread occupancy chart, the quickest way to *see* the dynamics the paper
// describes (SFQ's spurts, SFS's fine interleaving, starvation windows).  Used
// by examples/schedule_viz.

#ifndef SFS_SIM_GANTT_H_
#define SFS_SIM_GANTT_H_

#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/obs/trace.h"
#include "src/sched/types.h"

namespace sfs::sim {

struct GanttOptions {
  Tick from = 0;
  Tick to = 0;        // 0 = end of trace
  int width = 100;    // characters per row
  // Threads to render, in row order, with display labels.
  std::vector<std::pair<sched::ThreadId, std::string>> rows;
};

// Renders one row per requested thread; each column covers (to-from)/width of
// time and is filled with a block glyph scaled by the thread's occupancy of
// that slice (' ', '.', ':', '#' for 0, <25%, <75%, >=75% of one CPU).
// Reads the kRun records of the CPU rings (ts = start, arg = length, ring =
// CPU).  CHECK-fails if a CPU ring dropped records: a wrapped ring would draw
// a busy thread as idle.
std::string RenderGantt(const obs::Trace& trace, const GanttOptions& options);

}  // namespace sfs::sim

#endif  // SFS_SIM_GANTT_H_
