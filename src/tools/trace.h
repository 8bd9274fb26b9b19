// Execution trace export — the modern form of the paper's "tools for
// analyzing and improving execution speed" (§1): write_trace_events
// renders the event stream (tracing.h) as Chrome trace-event JSON
// (chrome://tracing, Perfetto) — operator slices placed at their real
// start timestamps in both executors, park intervals as slices, and
// scheduler/fault events as instants.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/runtime/registry.h"
#include "src/runtime/runtime.h"
#include "src/runtime/sim.h"

namespace delirium::tools {

/// Write a trace event stream (Runtime::trace_events(),
/// SimResult::trace_events) as Chrome trace-event JSON: operator
/// begin/end pairs become ph:"X" slices (args carry the attempt), parks
/// become slices on the owning worker's row, everything else becomes a
/// ph:"i" instant. Rows are named via thread_name metadata ("worker N" /
/// "caller"). The registry resolves operator indices to names.
void write_trace_events(std::ostream& os, const std::vector<TraceEvent>& events,
                        const OperatorRegistry& registry);

/// Convenience: write to a file; returns false on I/O failure.
bool write_trace_events_file(const std::string& path,
                             const std::vector<TraceEvent>& events,
                             const OperatorRegistry& registry);

/// The executor-independent projection of a trace, for sim-vs-threaded
/// comparison: one sorted string per operator event (begin/end with
/// attempt) and fault event (raise with activation seq, retry with
/// attempt). Scheduler events (steal, park, wake, inject) and
/// cancellation purges depend on the schedule and are excluded. Two runs
/// of the same program — any executor, any worker count, any structural
/// (`every=`) injection plan — produce equal multisets.
std::vector<std::string> deterministic_event_multiset(
    const std::vector<TraceEvent>& events, const OperatorRegistry& registry);

}  // namespace delirium::tools
