// Timeline export of AAA artifacts (DESIGN.md §3.2): renders a static
// adequation schedule as obs::TimelineSlices — one track per processor and
// per communication medium — for obs::JsonTraceWriter to write as a Chrome
// trace-event / Perfetto file. This turns the schedule Gantt of the paper's
// Figures 3-4 into an actual loadable timeline instead of an ASCII listing.
// Executive-VM runs record the same tracks live (exec::VmOptions::tracer).
#pragma once

#include <string>
#include <vector>

#include "aaa/schedule.hpp"
#include "obs/trace_json.hpp"

namespace ecsim::translate {

/// Static schedule -> slices: scheduled operations on "proc/<name>" tracks
/// (args: op id, iteration-independent WCET interval), route communications
/// on "medium/<name>" tracks (args: hop index, payload size).
std::vector<obs::TimelineSlice> schedule_to_timeline(
    const aaa::AlgorithmGraph& alg, const aaa::ArchitectureGraph& arch,
    const aaa::Schedule& sched);

}  // namespace ecsim::translate
