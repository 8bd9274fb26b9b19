#include "src/tools/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
#include <string>

#include "src/tools/metrics.h"

namespace delirium::tools {

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

/// Timestamps are nanoseconds; the trace-event format wants microseconds.
/// Emit them with the sub-microsecond part as decimals so short operators
/// don't collapse to zero-width slices.
void write_us(std::ostream& os, int64_t ns) {
  if (ns < 0) ns = 0;
  os << ns / 1000 << '.';
  const int64_t frac = ns % 1000;
  os << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

void write_slice(std::ostream& os, bool& first, const std::string& name,
                 const char* cat, int tid, int64_t ts_ns, int64_t dur_ns,
                 const char* args_key, int64_t args_value) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name": ")";
  write_escaped(os, name);
  os << R"(", "cat": ")" << cat << R"(", "ph": "X", "pid": 1, "tid": )" << tid
     << R"(, "ts": )";
  write_us(os, ts_ns);
  os << R"(, "dur": )";
  write_us(os, dur_ns < 1 ? 1 : dur_ns);
  os << R"(, "args": {")" << args_key << R"(": )" << args_value << "}}";
}

void write_instant(std::ostream& os, bool& first, const std::string& name, int tid,
                   int64_t ts_ns, int64_t arg) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name": ")";
  write_escaped(os, name);
  os << R"(", "cat": "scheduler", "ph": "i", "s": "t", "pid": 1, "tid": )" << tid
     << R"(, "ts": )";
  write_us(os, ts_ns);
  os << R"(, "args": {"arg": )" << arg << "}}";
}

void write_thread_name(std::ostream& os, bool& first, int tid, const std::string& name) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name": "thread_name", "ph": "M", "pid": 1, "tid": )" << tid
     << R"(, "args": {"name": ")";
  write_escaped(os, name);
  os << R"("}})";
}

/// Row id for an event: workers keep their index; the run's caller
/// thread (worker -1) gets a row past every worker.
int event_tid(const TraceEvent& e, int max_worker) {
  return e.worker >= 0 ? e.worker : max_worker + 1;
}

std::string op_name(int32_t op, const OperatorRegistry& registry) {
  const std::string* name = operator_name(registry, op);
  return name != nullptr ? *name : "?";
}

}  // namespace

void write_trace_events(std::ostream& os, const std::vector<TraceEvent>& events,
                        const OperatorRegistry& registry) {
  int max_worker = 0;
  for (const TraceEvent& e : events) max_worker = std::max(max_worker, static_cast<int>(e.worker));

  os << "[\n";
  bool first = true;

  // Row names.
  std::set<int> tids;
  bool has_external = false;
  for (const TraceEvent& e : events) {
    if (e.worker >= 0) tids.insert(e.worker);
    else has_external = true;
  }
  for (int tid : tids) write_thread_name(os, first, tid, "worker " + std::to_string(tid));
  if (has_external) write_thread_name(os, first, max_worker + 1, "caller");

  // Operator slices stream out at their end events, among the instants;
  // an end that closes nothing becomes an op_end instant.
  OpSlicer slicer;
  OpSlice slice;
  for (const TraceEvent& e : events) {
    const int tid = event_tid(e, max_worker);
    switch (e.kind) {
      case TraceEventKind::kOpBegin:
        slicer.feed(e, slice);
        break;
      case TraceEventKind::kOpEnd:
        if (slicer.feed(e, slice)) {
          write_slice(os, first, op_name(e.op, registry), "operator", tid, slice.start,
                      slice.duration, "attempt", slice.attempt);
        } else {
          write_instant(os, first, "op_end", tid, e.ts, e.arg);
        }
        break;
      case TraceEventKind::kPark:
        // arg is the total ns slept starting at ts (tracing.h).
        write_slice(os, first, "park", "scheduler", tid, e.ts, e.arg, "slept_ns", e.arg);
        break;
      case TraceEventKind::kFaultRaise:
      case TraceEventKind::kRetry:
      case TraceEventKind::kPurge: {
        std::string name(trace_event_kind_name(e.kind));
        if (e.op >= 0) name += ' ' + op_name(e.op, registry);
        write_instant(os, first, name, tid, e.ts, e.arg);
        break;
      }
      default:
        write_instant(os, first, std::string(trace_event_kind_name(e.kind)), tid, e.ts,
                      e.arg);
        break;
    }
  }
  os << "\n]\n";
}

bool write_trace_events_file(const std::string& path,
                             const std::vector<TraceEvent>& events,
                             const OperatorRegistry& registry) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_events(out, events, registry);
  return out.good();
}

std::vector<std::string> deterministic_event_multiset(
    const std::vector<TraceEvent>& events, const OperatorRegistry& registry) {
  std::vector<std::string> out;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kOpBegin:
      case TraceEventKind::kOpEnd:
      case TraceEventKind::kFaultRaise:
      case TraceEventKind::kRetry: {
        std::string line(trace_event_kind_name(e.kind));
        line += " op=" + op_name(e.op, registry);
        line += " arg=" + std::to_string(e.arg);
        out.push_back(std::move(line));
        break;
      }
      default:
        break;  // schedule-dependent: steal, park, wake, inject, purge, watchdog
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace delirium::tools
