// The benchmark's workloads. Each one is a family of Delirium programs
// put through the same four legs — compile, run (1 and 4 workers),
// simulate, serve — with its own oracles. Constructing a workload is its set-up (registries, program
// generation, the cold compile); oracles are prepared separately, so the
// reference computations never count as set-up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "src/delirium.h"
#include "src/runtime/instance.h"
#include "src/runtime/sim.h"

namespace delbench {

using delirium::CompiledProgram;
using delirium::CompileOptions;
using delirium::CompileResult;
using delirium::InstanceRequest;
using delirium::InstanceResult;
using delirium::OperatorRegistry;
using delirium::Runtime;
using delirium::SimConfig;
using delirium::Value;

/// One simulated run: host wall time and what the virtual machine did.
struct SimSample {
  double wall_ms = 0;
  int64_t makespan_ns = 0;
  uint64_t nodes = 0;
};

/// Per-operator virtual costs for SimConfig::fixed_costs, read from the
/// committed data/sim_costs.txt ("<op> <ns>" lines; "*" is the default).
struct FixedCosts {
  std::unordered_map<std::string, delirium::Ticks> per_op;
  delirium::Ticks default_ns = 1000;
};
FixedCosts load_fixed_costs();

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Computes the reference outputs (sequential models, solo runs,
  /// closed forms). Called once, after set-up and outside its timing.
  virtual void prepare_oracles() {}

  // -- compile leg: the workload's main program --------------------------
  virtual const OperatorRegistry& compile_registry() const = 0;
  virtual const std::string& compile_text() const = 0;
  virtual CompileOptions compile_options() const { return {}; }
  /// Checks one compile; `first` marks the leg's first sample, where the
  /// expensive oracles run.
  virtual bool check_compile(const CompileResult& r, bool /*first*/) const { return r.ok; }

  // -- run leg ------------------------------------------------------------
  virtual const OperatorRegistry& run_registry() const = 0;
  /// One timed run on `rt`; returns the milliseconds of the library call
  /// alone and checks its output into `rep`.
  virtual double run_once(Runtime& rt, Report& rep) = 0;
  /// Whether the operators are builtins cheap enough that the raw
  /// registry call rung prices them (otherwise a traced run's operator
  /// durations do).
  virtual bool builtin_operators() const { return false; }

  // -- sim leg ------------------------------------------------------------
  /// One simulated run on 4 virtual processors under the fixed cost map;
  /// `large` selects the measured size, otherwise the smaller size the
  /// per-node growth ratio compares against.
  virtual SimSample sim_once(const SimConfig& config, bool large, Report& rep) = 0;

  // -- serve leg ----------------------------------------------------------
  virtual const OperatorRegistry& serve_registry() const = 0;
  /// Request `i` of the seeded request sequence.
  virtual InstanceRequest request(uint64_t i) const = 0;
  virtual bool check_instance(uint64_t i, const InstanceResult& r) const = 0;
  virtual size_t burst_size() const = 0;
  /// Open-loop offered rate, requests/s: roughly 40-55% of what a
  /// 4-worker burst sustains on the reference host.
  virtual double offered_rps() const = 0;

 protected:
  Workload() = default;
};

/// The workload names: BENCHMARK.json's, in its order, then the ungated
/// instances_mix and retina_coarse (see BENCHMARK.md).
const std::vector<std::string>& workload_names();

/// Set up the named workload for `seed` (null for an unknown name).
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed);

/// Print the committed compile_dcc oracle (data/dcc_expected.txt).
int record_dcc_expected();

}  // namespace delbench
