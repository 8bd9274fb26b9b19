// Virtual-time execution of coordination graphs.
//
// The paper evaluates on 4-processor Crays and a Sequent. The threaded
// runtime measures real speedups only up to the host's hardware threads;
// beyond that, and wherever a deterministic schedule is needed,
// SimRuntime substitutes a discrete-event scheduler: every operator
// *executes for real* (values are exact), its cost is measured (or
// fixed, or replayed), and a virtual P-processor machine is simulated
// with the same ready-queue policy as the threaded runtime (three
// priority levels, FIFO within a level, affinity preferences). Speedup
// figures are ratios of virtual makespans. The pick rule and the indexed
// ready queue that evaluates it are described in docs/RUNTIME.md, "The
// virtual-time executor".
//
// All graph semantics (activation lifecycle, CoW, fault capture/retry,
// trace emission) come from the shared ExecutorCore (executor_core.h);
// this header adds only the virtual machine: the discrete-event clock,
// the simulated P-processor ready queue, and virtual-time charging of
// stalls, backoff, and the simulated-NUMA penalties of §9.3 (touching a
// block homed on another processor adds a per-KiB cost to the node
// instead of spinning, which makes the Butterfly-style experiments cheap
// and exact).
#pragma once

#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/template.h"
#include "src/runtime/executor_core.h"
#include "src/runtime/registry.h"
#include "src/runtime/value.h"

namespace delirium {

/// Per-operator costs, one entry per invocation in occurrence order.
/// Recorded by a calibration run and replayed so that speedup curves are
/// deterministic (measured costs vary run to run on a busy host).
struct CostTable {
  std::unordered_map<std::string, std::vector<Ticks>> per_op;
};

/// Virtual-machine knobs. Everything shared with the threaded runtime
/// (priorities, tail calls, affinity, CoW fast path, retries, tracing,
/// topology, ...) lives in the ExecConfig base
/// (executor_core.h) so a knob exists in both executors by construction.
struct SimConfig : ExecConfig {
  int num_procs = 4;
  /// Virtual cost of every non-operator node (scheduling, tuple and
  /// closure plumbing, subgraph expansion). Roughly what the threaded
  /// runtime pays per node.
  int64_t node_overhead_ns = 300;
  /// When set, the i-th invocation of each operator costs what the table
  /// says instead of its measured wall time (operators still execute for
  /// real — values are exact either way). An operator missing from the
  /// table, or invoked more often than its row is long, costs
  /// `fixed_cost_default_ns`, so a replay never charges wall time.
  const CostTable* replay_costs = nullptr;
  /// When set, measured operator costs are appended here.
  CostTable* record_costs = nullptr;
  /// When set, *every* invocation of an operator costs the mapped value
  /// (ops absent from the map cost `fixed_cost_default_ns`) — measured
  /// wall time never reaches the virtual clock, so the whole run is
  /// byte-deterministic. This is how `delc --plan` replays a calibration
  /// profile (docs/PROFILING.md). Takes precedence over replay_costs.
  const std::unordered_map<std::string, Ticks>* fixed_costs = nullptr;
  /// Cost of operators missing from `fixed_costs`, and of invocations
  /// `replay_costs` has no entry for (ignored when neither is set).
  Ticks fixed_cost_default_ns = 1000;
  /// Watchdog: virtual-time budget in nanoseconds; 0 disables. The
  /// simulated clock is deterministic (with replayed costs), so a
  /// watchdog fire here reproduces exactly. (The threaded runtime's
  /// budget is wall-clock milliseconds — see RuntimeConfig.)
  int64_t watchdog_budget_ns = 0;

  /// Machine-model preset approximating a small cluster of shared-memory
  /// shards: MemoryTopology::cluster()'s four domains, each holding
  /// `procs_per_shard` virtual processors, with a steep inter-domain
  /// transfer cost. Values stay identical to any other topology — only
  /// virtual makespans (and the locality counters) move.
  static SimConfig sharded_cluster(int procs_per_shard = 2);
};

struct SimResult {
  Value result;
  Ticks makespan = 0;              // virtual ns from start to final result
  Ticks total_busy = 0;            // sum of per-processor busy time
  std::vector<Ticks> proc_busy;    // per-processor busy time
  RunStats stats;
  /// Trace event stream (empty unless enable_tracing), in record order,
  /// timestamped in exact virtual nanoseconds; op_slices() (tracing.h)
  /// pairs it into per-operator costs.
  std::vector<TraceEvent> trace_events;
};

/// One instance of a multi-instance batch (the virtual-time leg of the
/// InstanceManager — see instance.h and docs/ROBUSTNESS.md "Isolation
/// model"). All instances share one virtual machine; each is isolated:
/// its faults, budgets, and cancellation never touch a sibling.
struct SimInstanceRequest {
  const CompiledProgram* program = nullptr;
  std::string function;  // empty = the program's entry template
  std::vector<Value> args;
  uint64_t max_activations = 0;  // 0 = unlimited
  int64_t time_budget_ns = 0;    // virtual ns from arrival; 0 = none
  Ticks arrival = 0;             // virtual arrival time of the request
};

struct SimInstanceOutcome {
  bool have_value = false;
  Value value;
  /// Fault winner under fault_before() — byte-identical (render()) to
  /// what a solo run of the same program reports.
  bool have_fault = false;
  FaultInfo fault;
  bool budget_exceeded = false;
  /// Diagnostic text when not a value: the fault render, the budget
  /// message, or the deadlock dump.
  std::string message;
  Ticks finish = 0;   // virtual time of the last event of this instance
  Ticks latency = 0;  // finish - arrival
  uint64_t activations = 0;
};

struct SimBatchResult {
  std::vector<SimInstanceOutcome> outcomes;  // one per request, same order
  Ticks makespan = 0;  // virtual completion time of the whole batch
  RunStats stats;
};

/// Single-threaded simulator. Stateless across runs except for nothing —
/// construct per experiment.
class SimRuntime {
 public:
  SimRuntime(const OperatorRegistry& registry, SimConfig config = {});

  /// Execute the entry point under virtual time.
  SimResult run(const CompiledProgram& program, std::vector<Value> args = {});
  SimResult run_function(const CompiledProgram& program, const std::string& name,
                         std::vector<Value> args = {});

  /// Execute a batch of independent instances concurrently on one
  /// virtual machine, with per-instance fault containment and budgets.
  /// Nothing throws per instance — every outcome (value, fault, budget
  /// kill, deadlock) is reported structurally in the batch result.
  /// Fully deterministic given (requests, config): cost replay and
  /// nth= injection selectors share per-operator arrival counters across
  /// the batch, so use structural every= selectors for cross-checking
  /// against solo runs.
  SimBatchResult run_instances(const std::vector<SimInstanceRequest>& requests);

  /// Trace of the most recent run (empty unless enable_tracing). Unlike
  /// SimResult::trace_events this survives a faulting run, mirroring
  /// Runtime::trace_events() so fault recovery is comparable across the
  /// two executors.
  const std::vector<TraceEvent>& trace_events() const { return last_trace_; }

  /// Counters of the most recent run. Like Runtime::last_stats() this
  /// survives a faulting run (SimResult::stats does not), so fault
  /// accounting is comparable across the two executors.
  const RunStats& last_stats() const { return last_stats_; }

 private:
  struct Impl;
  const OperatorRegistry& registry_;
  SimConfig config_;
  std::vector<TraceEvent> last_trace_;
  RunStats last_stats_;
};

/// Run the program `runs` times on one virtual processor and return the
/// per-invocation median operator costs. Replaying this table makes the
/// speedup experiments deterministic.
CostTable calibrate_costs(const OperatorRegistry& registry, const CompiledProgram& program,
                          int runs = 3);

}  // namespace delirium
