// Shared helpers for the test suite: compile-and-run conveniences and
// the cross-executor equivalence fixture.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/delirium.h"
#include "src/runtime/sim.h"
#include "src/tools/trace.h"

namespace delirium::testing {

/// Saves the named environment variables and unsets them, restoring the
/// original values on destruction. Tests that exercise the runtime's env
/// knobs (DELIRIUM_INJECT_FAULTS, DELIRIUM_RETRIES, ...) use this so they
/// stay hermetic under CI jobs that export those variables suite-wide.
class ScopedEnv {
 public:
  explicit ScopedEnv(std::initializer_list<const char*> names) {
    for (const char* name : names) {
      const char* old = std::getenv(name);
      saved_.emplace_back(name, old != nullptr ? std::optional<std::string>(old)
                                               : std::nullopt);
      ::unsetenv(name);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    for (const auto& [name, old] : saved_) {
      if (old.has_value()) {
        ::setenv(name.c_str(), old->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }

  void set(const char* name, const char* value) { ::setenv(name, value, 1); }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

/// Registry with builtins pre-registered.
inline std::shared_ptr<OperatorRegistry> builtin_registry() {
  auto reg = std::make_shared<OperatorRegistry>();
  register_builtin_operators(*reg);
  return reg;
}

/// Compile `source` and run `main` with `workers` workers; returns the
/// result value. Throws on compile or runtime failure.
inline Value compile_and_run(const std::string& source, const OperatorRegistry& registry,
                             int workers = 2, const CompileOptions& copts = {},
                             RuntimeConfig rconfig = {}) {
  CompiledProgram program = compile_or_throw(source, registry, copts);
  rconfig.num_workers = workers;
  Runtime runtime(registry, rconfig);
  return runtime.run(program);
}

/// Compile and run with builtins only.
inline Value eval(const std::string& source, int workers = 2) {
  auto reg = builtin_registry();
  return compile_and_run(source, *reg, workers);
}

inline int64_t eval_int(const std::string& source, int workers = 2) {
  return eval(source, workers).as_int();
}

/// A registry of pass-through unary operators named `names`, in index
/// order, for resolving the operator indices of hand-built traces.
inline std::shared_ptr<OperatorRegistry> named_registry(
    std::initializer_list<const char*> names) {
  auto reg = std::make_shared<OperatorRegistry>();
  for (const char* name : names) {
    reg->add(name, 1, [](OpContext& ctx) { return ctx.take(0); });
  }
  return reg;
}

/// One operator attempt of a hand-built trace; `op` is a registry index.
struct SliceSpec {
  int32_t op = -1;
  int16_t worker = 0;
  int64_t start = 0;
  int64_t duration = 0;
};

/// A trace event stream with one kOpBegin/kOpEnd pair (attempt 0) per
/// spec, in order, stamped with ascending sequence numbers — the input
/// of everything that reads op_slices.
inline std::vector<TraceEvent> op_pair_events(const std::vector<SliceSpec>& slices) {
  std::vector<TraceEvent> events;
  for (const SliceSpec& s : slices) {
    events.push_back({s.start, events.size(), 0, s.op, s.worker, TraceEventKind::kOpBegin});
    events.push_back(
        {s.start + s.duration, events.size(), 0, s.op, s.worker, TraceEventKind::kOpEnd});
  }
  return events;
}

// ---------------------------------------------------------------------------
// ExecutorFixture: cross-executor equivalence matrix
// ---------------------------------------------------------------------------

/// One executor in the equivalence matrix.
struct ExecutorSpec {
  enum class Kind { kThreaded, kSim };
  Kind kind = Kind::kThreaded;
  int workers = 1;  // worker threads / virtual processors
  /// Overrides the fixture-wide ExecConfig::affinity when set.
  std::optional<AffinityMode> affinity;

  std::string name() const {
    if (kind == Kind::kSim) return "sim_procs" + std::to_string(workers);
    std::string n = "threaded" + std::to_string(workers);
    if (affinity.has_value()) {
      switch (*affinity) {
        case AffinityMode::kNone: break;
        case AffinityMode::kOperator: n += "_opaff"; break;
        case AffinityMode::kData: n += "_dataff"; break;
      }
    }
    return n;
  }
};

/// What one executor produced: a value or an error, plus the
/// executor-invariant slice of the run (deterministic counters and the
/// deterministic trace-event multiset of docs/OBSERVABILITY.md).
struct ExecutorOutcome {
  Value value;
  std::exception_ptr error;  // set iff the run threw
  std::string error_text;
  RunStats stats;
  std::vector<std::string> trace;  // tools::deterministic_event_multiset
  /// Events lost to ring overwrite (flight-recorder truncation). Which
  /// events survive a full ring is schedule-dependent, so multisets are
  /// compared only between runs that kept everything.
  uint64_t trace_overwritten = 0;

  bool faulted() const { return error != nullptr; }
  /// The value, or rethrow what the executor threw.
  const Value& value_or_rethrow() const {
    if (error) std::rethrow_exception(error);
    return value;
  }
};

/// Runs any program across the executor matrix — by default
/// {threaded × {1, 2, 8} workers, sim × {1, 4} procs} — and asserts
/// the parts of the outcome that are functions of the coordination
/// graph alone: deep-equal values, byte-identical error reports,
/// identical graph-determined counters, and equal deterministic trace
/// multisets. Schedule-dependent numbers (peak liveness, CoW hits,
/// steals/parks, pool recycling, purge counts on cancelled runs) are
/// deliberately not compared.
///
/// Shared knobs set on config() apply to every executor, so a test can
/// sweep e.g. affinity or retry policy across the whole matrix.
class ExecutorFixture {
 public:
  ExecutorFixture() : owned_(builtin_registry()), registry_(owned_.get()) {}
  /// Uses a caller-owned registry (custom operators, fault plans). The
  /// registry must outlive the fixture.
  explicit ExecutorFixture(const OperatorRegistry& registry) : registry_(&registry) {}

  ExecConfig& config() { return shared_; }
  CompileOptions& compile_options() { return copts_; }
  std::vector<ExecutorSpec>& matrix() { return matrix_; }

  static std::vector<ExecutorSpec> default_matrix() {
    std::vector<ExecutorSpec> specs;
    for (const int workers : {1, 2, 8}) {
      specs.push_back({ExecutorSpec::Kind::kThreaded, workers, {}});
    }
    specs.push_back({ExecutorSpec::Kind::kSim, 1});
    specs.push_back({ExecutorSpec::Kind::kSim, 4});
    return specs;
  }

  /// Run the program on one executor. Tracing is forced on so the trace
  /// multiset is always comparable.
  ExecutorOutcome run_on(const CompiledProgram& program, const ExecutorSpec& spec) const {
    ExecutorOutcome out;
    if (spec.kind == ExecutorSpec::Kind::kSim) {
      SimConfig config;
      static_cast<ExecConfig&>(config) = shared_;
      config.num_procs = spec.workers;
      if (spec.affinity.has_value()) config.affinity = *spec.affinity;
      config.enable_tracing = true;
      config.trace_capacity = kTraceCapacity;
      SimRuntime sim(*registry_, config);
      try {
        SimResult result = sim.run(program);
        out.value = std::move(result.result);
      } catch (const std::exception& e) {
        out.error = std::current_exception();
        out.error_text = e.what();
      }
      out.stats = sim.last_stats();
      out.trace = tools::deterministic_event_multiset(sim.trace_events(), *registry_);
    } else {
      RuntimeConfig config;
      static_cast<ExecConfig&>(config) = shared_;
      config.num_workers = spec.workers;
      if (spec.affinity.has_value()) config.affinity = *spec.affinity;
      config.enable_tracing = true;
      config.trace_capacity = kTraceCapacity;
      Runtime runtime(*registry_, config);
      try {
        out.value = runtime.run(program);
      } catch (const std::exception& e) {
        out.error = std::current_exception();
        out.error_text = e.what();
      }
      out.stats = runtime.last_stats();
      out.trace = tools::deterministic_event_multiset(runtime.trace_events(), *registry_);
      out.trace_overwritten = runtime.trace_events_overwritten();
    }
    return out;
  }

  /// Run on every executor in the matrix, assert equivalence, and return
  /// the first (reference) executor's outcome.
  ExecutorOutcome expect_equivalent(const CompiledProgram& program) const {
    const ExecutorOutcome ref = run_on(program, matrix_.front());
    for (size_t i = 1; i < matrix_.size(); ++i) {
      const ExecutorSpec& spec = matrix_[i];
      const ExecutorOutcome got = run_on(program, spec);
      const std::string where =
          "executor " + spec.name() + " vs " + matrix_.front().name();
      EXPECT_EQ(got.faulted(), ref.faulted()) << where;
      if (ref.faulted() || got.faulted()) {
        // Error reports are byte-identical across executors, except that
        // the simulator labels its deadlock diagnostics "simulated".
        EXPECT_EQ(strip_simulated(got.error_text), strip_simulated(ref.error_text))
            << where;
        EXPECT_EQ(got.stats.faults_raised, ref.stats.faults_raised) << where;
        // Everything else (nodes executed, purge counts, traces) is
        // schedule-dependent on a cancelled run — not compared.
        continue;
      }
      EXPECT_TRUE(deep_equal(got.value, ref.value)) << where;
      EXPECT_EQ(got.stats.nodes_executed, ref.stats.nodes_executed) << where;
      EXPECT_EQ(got.stats.operator_invocations, ref.stats.operator_invocations) << where;
      EXPECT_EQ(got.stats.activations_created, ref.stats.activations_created) << where;
      EXPECT_EQ(got.stats.faults_raised, ref.stats.faults_raised) << where;
      EXPECT_EQ(got.stats.faults_injected, ref.stats.faults_injected) << where;
      EXPECT_EQ(got.stats.retries, ref.stats.retries) << where;
      EXPECT_EQ(got.stats.retries_exhausted, ref.stats.retries_exhausted) << where;
      if (got.trace_overwritten == 0 && ref.trace_overwritten == 0) {
        EXPECT_EQ(got.trace, ref.trace) << where;
      }
    }
    return ref;
  }

  /// Compile `source` (with the fixture's compile options), then
  /// expect_equivalent on the result.
  ExecutorOutcome expect_equivalent(const std::string& source) const {
    return expect_equivalent(compile_or_throw(source, *registry_, copts_));
  }

 private:
  /// Per-worker ring capacity for the matrix runs: roomy enough that the
  /// test workloads keep their whole event stream (truncated rings are
  /// exempt from the multiset comparison), small enough that an
  /// 8-worker runtime's rings stay cheap to allocate per run.
  static constexpr size_t kTraceCapacity = size_t{1} << 18;

  static std::string strip_simulated(const std::string& text) {
    constexpr const char* kPrefix = "simulated ";
    return text.rfind(kPrefix, 0) == 0 ? text.substr(std::string(kPrefix).size()) : text;
  }

  std::shared_ptr<OperatorRegistry> owned_;  // only for the default ctor
  const OperatorRegistry* registry_;
  ExecConfig shared_;
  CompileOptions copts_;
  std::vector<ExecutorSpec> matrix_ = default_matrix();
};

/// Compile `source` with builtins only and run it through the whole
/// ExecutorFixture matrix; returns the reference value or rethrows the
/// reference executor's error. The one-liner for core-language tests.
inline Value eval_everywhere(const std::string& source) {
  ExecutorFixture fixture;
  return fixture.expect_equivalent(source).value_or_rethrow();
}

inline int64_t eval_int_everywhere(const std::string& source) {
  return eval_everywhere(source).as_int();
}

}  // namespace delirium::testing
