// Trace-driven cost profiles (docs/PROFILING.md): aggregate a run's
// trace event stream into per-operator LogHistogram cost profiles,
// persist them as a versioned JSON calibration profile
// (delc --profile-out / --profile-in), and replay them through the
// virtual-time executor for capacity planning (delc --plan).
//
// Everything here is deterministic: the profile is a function of the
// seq-stamped merged trace (exact virtual nanoseconds in SimRuntime),
// serialization orders operators by name and buckets by index, and
// plan_capacity drives SimRuntime with fixed per-operator costs so the
// predicted makespans are byte-stable across schedulers, executors, and
// recompiles.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/facts.h"
#include "src/runtime/registry.h"
#include "src/runtime/sim.h"
#include "src/runtime/tracing.h"
#include "src/tools/metrics.h"

namespace delirium::tools {

/// Serialization format version (the "version" field of the JSON).
inline constexpr int kCostProfileVersion = 1;

/// Per-operator cost histograms distilled from one or more runs.
struct CostProfile {
  std::map<std::string, LogHistogram> operators;

  bool empty() const { return operators.empty(); }
};

/// Build a profile from a trace event stream: each operator attempt's
/// slice (op_slices, tracing.h) is observed under the operator's name.
/// With SimRuntime timestamps the durations are the exact virtual
/// operator costs; with wall-clock timestamps they are measured. Events
/// are re-sorted by seq first, so any merge order is accepted.
CostProfile profile_from_trace(const std::vector<TraceEvent>& events,
                               const OperatorRegistry& registry);

/// Serialize as the versioned JSON calibration profile. Deterministic:
/// a load followed by a write reproduces the bytes exactly.
void write_cost_profile(std::ostream& os, const CostProfile& profile);
bool write_cost_profile_file(const std::string& path, const CostProfile& profile);
std::string cost_profile_to_json(const CostProfile& profile);

/// Parse a serialized profile. Throws std::invalid_argument with a
/// message naming the offending field path (e.g. "operators.add.count")
/// on any malformed input.
CostProfile load_cost_profile(const std::string& text);
/// Read and parse `path`; throws std::runtime_error if unreadable.
CostProfile load_cost_profile_file(const std::string& path);

/// Deterministic representative cost of one histogram: mean nanoseconds
/// (total / count, at least 1).
int64_t profile_mean_ns(const LogHistogram& h);

/// Distill the profile into the facts engine's CostModel: per-operator
/// mean ns, default = the mean across every observation.
CostModel to_cost_model(const CostProfile& profile);

/// Per-operator fixed costs for SimConfig::fixed_costs (same means).
std::unordered_map<std::string, Ticks> fixed_costs_from(const CostProfile& profile);

/// One worker-count point of a capacity plan.
struct PlanPoint {
  int workers = 0;
  int64_t makespan_ns = 0;
  double speedup = 1.0;     // serial makespan / this makespan
  double efficiency = 1.0;  // speedup / workers
};

/// The full what-if sweep `delc --plan` reports.
struct CapacityPlan {
  std::vector<PlanPoint> points;   // ascending worker counts
  int64_t serial_makespan_ns = 0;  // the 1-worker point
  int64_t best_makespan_ns = 0;
  int best_workers = 0;    // smallest count achieving the best makespan
  int knee_workers = 0;    // smallest count within 5% of the best
  int64_t target_ns = 0;   // requested latency target; 0 = none
  int target_workers = 0;  // smallest count meeting the target; 0 = unmet
};

/// The default sweep: 1..64 virtual processors in powers of two.
std::vector<int> default_plan_workers();

/// Replay `program` through SimRuntime at each worker count with the
/// profile's per-operator costs fixed on the virtual clock. Operators
/// absent from the profile cost the profile-wide mean. Byte-
/// deterministic for a given (program, profile, workers, target).
CapacityPlan plan_capacity(const CompiledProgram& program,
                           const OperatorRegistry& registry, const CostProfile& profile,
                           const std::vector<int>& workers = default_plan_workers(),
                           int64_t target_ns = 0);

/// Headroom multiplier on the p99 work sum in budget_from_profile:
/// operator histograms don't see graph-dispatch overhead, so the raw
/// sum undershoots whole-run time on fine-grained programs.
inline constexpr int64_t kBudgetHeadroom = 8;

/// Conservative per-instance time budget for admission control:
/// kBudgetHeadroom * the sum over operators of count * p99
/// (docs/PROFILING.md). Used as the --instances default when a profile
/// is loaded and no explicit budget was given; callers running N
/// co-tenant instances should scale by N, since the instances share
/// one machine.
int64_t budget_from_profile(const CostProfile& profile);

}  // namespace delirium::tools
