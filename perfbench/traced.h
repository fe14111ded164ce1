// The traced run: the workload's batch once more, in this process, with
// probe events in every point's calendar and spans around every call into
// a layer. It yields the per-layer metrics and the layer attribution.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <string>
#include <vector>

#include "ccsim/engine/run.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

/// Runs `workload` traced, checks its results against the untraced batch
/// (`untraced`, which took `untraced_wall_s` of host time), writes the spans
/// as Chrome trace-event JSON to `trace_path`, and adds the per-layer
/// metrics to `report`.
void RunTraced(const Workload& workload,
               const std::vector<ccsim::engine::RunResult>& untraced,
               double untraced_wall_s, const std::string& trace_path,
               Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
