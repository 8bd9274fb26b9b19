// Metrics export (docs/OBSERVABILITY.md): a MetricsRegistry snapshots
// RunStats plus per-operator duration histograms from the trace event
// stream and serializes them as JSON or Prometheus text exposition
// format (delc --metrics FILE --metrics-format {json,prom}).
//
// Histograms use fixed log2 buckets, so percentile estimates are
// deterministic bucket upper bounds — the same durations always report
// the same p50/p99, which keeps the golden-file test stable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/runtime/instance.h"
#include "src/runtime/runtime.h"

namespace delirium::tools {

/// One RunStats counter, by name. run_stat_fields() is the single source
/// of truth for the counter schema: the --stats text dump, the metrics
/// JSON, and the Prometheus export all iterate this list, so the three
/// views can never drift apart.
struct RunStatField {
  const char* name;
  uint64_t value;
};

/// Every RunStats counter in the fixed report order.
std::vector<RunStatField> run_stat_fields(const RunStats& stats);

/// The duration histogram (tracing.h), under its tools-side name.
using delirium::LogHistogram;

/// The registered name of operator index `op` (from a trace event or an
/// operator slice), or null when `registry` has no such index: a
/// hand-built stream, or a registry other than the run's. Every tool
/// resolves operator indices through this one check.
const std::string* operator_name(const OperatorRegistry& registry, int32_t op);

/// Merge histograms indexed by operator (op_histograms,
/// Runtime::trace_overwritten_slices) into `by_name` under their
/// operators' names. Empty histograms and unknown indices add nothing.
void add_named(std::map<std::string, LogHistogram>& by_name,
               const std::vector<LogHistogram>& by_op, const OperatorRegistry& registry);

/// Aggregates one or more runs (RunStats + per-operator histograms) and
/// exports them. Counters sum across observed runs;
/// peak_live_activations keeps the maximum.
class MetricsRegistry {
 public:
  /// Fold in one run: its counters, and one histogram sample per
  /// operator attempt in `events` (op_slices, tracing.h) plus the
  /// attempts a full ring overwrote (`overwritten`, from
  /// Runtime::trace_overwritten_slices), named through `registry`. An
  /// untraced run contributes counters only.
  void observe_run(const RunStats& stats, const std::vector<TraceEvent>& events,
                   const OperatorRegistry& registry,
                   const std::vector<LogHistogram>& overwritten = {});

  /// Fold in one InstanceManager session (docs/ROBUSTNESS.md "Isolation
  /// model"): the admission/outcome tallies plus a latency histogram
  /// built from the manager's raw per-instance latencies. Counters sum
  /// and `live` keeps the latest value across sessions. The instance
  /// section appears in the exports only once this has been called.
  void observe_instances(const InstanceCounters& counters,
                         const std::vector<int64_t>& latencies_ns);

  /// Deterministic JSON: {"runs": N, "stats": {...}, "operators": {...}}
  /// with operators sorted by name.
  void to_json(std::ostream& os) const;
  /// Prometheus text exposition format, metrics prefixed `delirium_`.
  void to_prometheus(std::ostream& os) const;

  /// Write in `format` ("json" or "prom"); false on I/O failure or an
  /// unknown format.
  bool write_file(const std::string& path, const std::string& format) const;

  uint64_t runs() const { return runs_; }

 private:
  uint64_t runs_ = 0;
  RunStats totals_;
  std::map<std::string, LogHistogram> per_op_;
  bool instances_observed_ = false;
  InstanceCounters instance_totals_;
  LogHistogram instance_latency_;
};

}  // namespace delirium::tools
