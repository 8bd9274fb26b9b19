// Trace-event subsystem tests (docs/OBSERVABILITY.md): stream shape,
// Chrome JSON export validity, sim-vs-threaded agreement on the
// executor-independent event projection, ring overflow accounting, the
// operator-slice pairing rule, the RunStats reset-between-runs contract,
// and the metrics golden file.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/fault.h"
#include "src/runtime/sim.h"
#include "src/tools/metrics.h"
#include "src/tools/trace.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ScopedEnv;
using tools::deterministic_event_multiset;

// Every env knob the tracer or the runs below honor, so the suite stays
// hermetic under CI jobs that export them.
ScopedEnv hermetic_env() {
  return ScopedEnv({"DELIRIUM_TRACE", "DELIRIUM_TRACE_CAPACITY", "DELIRIUM_INJECT_FAULTS",
                    "DELIRIUM_RETRIES"});
}

const char* kFanProgram = R"(
  step(x) mul(add(x, 1), 2)
  leaf(x) step(step(x))
  main() add(add(leaf(1), leaf(2)), add(leaf(3), leaf(4)))
)";

// All-constant programs would otherwise fold away at compile time,
// leaving nothing for the tracer to record.
CompiledProgram compile_unoptimized(const std::string& source,
                                    const OperatorRegistry& reg) {
  CompileOptions copts;
  copts.optimize = false;
  return compile_or_throw(source, reg, copts);
}

std::vector<TraceEvent> threaded_trace(const CompiledProgram& program,
                                       const OperatorRegistry& reg, int workers,
                                       RuntimeConfig config = {}) {
  config.num_workers = workers;
  config.enable_tracing = true;
  Runtime runtime(reg, config);
  runtime.run(program);
  EXPECT_EQ(runtime.trace_events_overwritten(), 0u);
  return runtime.trace_events();
}

// ---------------------------------------------------------------------------
// Stream shape
// ---------------------------------------------------------------------------

TEST(TraceEvents, StreamIsSeqSortedWithUniqueSeqs) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  const std::vector<TraceEvent> events = threaded_trace(program, *reg, 4);
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq) << "at " << i;
  }
}

TEST(TraceEvents, OpBeginEndWellNestedPerWorker) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  const std::vector<TraceEvent> events = threaded_trace(program, *reg, 4);

  // Workers execute one operator at a time: per worker, in seq order,
  // every kOpEnd must close the immediately preceding open kOpBegin with
  // the same operator, and depth never exceeds one.
  std::map<int, std::vector<const TraceEvent*>> open;  // worker -> stack
  size_t begins = 0;
  size_t ends = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kOpBegin) {
      ++begins;
      auto& stack = open[e.worker];
      EXPECT_TRUE(stack.empty()) << "nested operator on worker " << e.worker;
      stack.push_back(&e);
    } else if (e.kind == TraceEventKind::kOpEnd) {
      ++ends;
      auto& stack = open[e.worker];
      ASSERT_FALSE(stack.empty()) << "unmatched kOpEnd on worker " << e.worker;
      EXPECT_EQ(stack.back()->op, e.op);
      EXPECT_EQ(stack.back()->arg, e.arg);  // same attempt
      EXPECT_LE(stack.back()->ts, e.ts);
      stack.pop_back();
    }
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  for (const auto& [worker, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "dangling kOpBegin on worker " << worker;
  }
}

TEST(TraceEvents, SimTimestampsAreExactVirtualTime) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  SimConfig config;
  config.num_procs = 2;
  config.enable_tracing = true;
  SimRuntime sim(*reg, config);
  const SimResult r = sim.run(program);
  ASSERT_FALSE(r.trace_events.empty());
  for (const TraceEvent& e : r.trace_events) {
    EXPECT_GE(e.ts, 0);
    EXPECT_LE(e.ts, r.makespan);
  }
  // The accessor mirrors the result for a successful run.
  EXPECT_EQ(sim.trace_events().size(), r.trace_events.size());
}

// ---------------------------------------------------------------------------
// Chrome JSON export
// ---------------------------------------------------------------------------

// Minimal structural JSON check: strings (with escapes) are skipped, and
// bracket/brace nesting must balance to zero exactly at the end.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(TraceEvents, ChromeExportIsBalancedAndNamesRows) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  const std::vector<TraceEvent> events = threaded_trace(program, *reg, 3);

  std::ostringstream os;
  tools::write_trace_events(os, events, *reg);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // thread_name rows
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // operator slices
  EXPECT_NE(json.find("worker 0"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"add\""), std::string::npos);
}

TEST(TraceEvents, ChromeExportOfEmptyStreamIsValid) {
  auto reg = testing::builtin_registry();
  std::ostringstream os;
  tools::write_trace_events(os, {}, *reg);
  expect_balanced_json(os.str());
}

// ---------------------------------------------------------------------------
// Sim vs threaded: the executor-independent projection agrees
// ---------------------------------------------------------------------------

std::vector<std::string> sim_multiset(const CompiledProgram& program,
                                      const OperatorRegistry& reg, int procs,
                                      SimConfig config = {}) {
  config.num_procs = procs;
  config.enable_tracing = true;
  SimRuntime sim(reg, config);
  const SimResult r = sim.run(program);
  return deterministic_event_multiset(r.trace_events, reg);
}

TEST(TraceEvents, SimAndThreadedAgreeOnCleanRun) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);

  const std::vector<std::string> sim3 = sim_multiset(program, *reg, 3);
  ASSERT_FALSE(sim3.empty());
  EXPECT_EQ(sim3, sim_multiset(program, *reg, 1));

  for (int workers : {1, 2, 4}) {
    const std::vector<std::string> threaded =
        deterministic_event_multiset(threaded_trace(program, *reg, workers), *reg);
    EXPECT_EQ(sim3, threaded) << "workers=" << workers;
  }
}

TEST(TraceEvents, SimAndThreadedAgreeUnderInjectedFaultsWithRetries) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  // A structural (`every=`) injection plan fires on the same activations
  // in every executor; fail_attempts=1 plus retries lets the run finish,
  // so the multisets carry kFaultRaise and kRetry entries on both sides.
  reg->set_fault_plan(
      std::make_shared<const FaultPlan>(FaultPlan::parse("add:throw:every=3:seed=7:"
                                                         "fail_attempts=1")));
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);

  SimConfig sim_config;
  sim_config.max_retries = 2;
  const std::vector<std::string> sim = sim_multiset(program, *reg, 2, sim_config);
  // A retried-and-recovered fault records kRetry only; kFaultRaise marks
  // a fault captured for drain (retries exhausted or ineligible).
  const bool has_retry = std::any_of(sim.begin(), sim.end(), [](const std::string& s) {
    return s.find("retry") != std::string::npos;
  });
  EXPECT_TRUE(has_retry);

  RuntimeConfig config;
  config.max_retries = 2;
  const std::vector<std::string> threaded =
      deterministic_event_multiset(threaded_trace(program, *reg, 4, config), *reg);
  EXPECT_EQ(sim, threaded);
}

TEST(TraceEvents, FaultingRunTraceSurvivesOnBothExecutors) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  reg->add("boom", 1, [](OpContext&) -> Value { throw RuntimeError("kaput"); }).pure();
  CompiledProgram program = compile_unoptimized("main() boom(1)", *reg);

  RuntimeConfig config;
  config.num_workers = 2;
  config.enable_tracing = true;
  Runtime runtime(*reg, config);
  EXPECT_THROW(runtime.run(program), FaultError);
  const std::vector<std::string> threaded =
      deterministic_event_multiset(runtime.trace_events(), *reg);

  SimConfig sim_config;
  sim_config.num_procs = 2;
  sim_config.enable_tracing = true;
  SimRuntime sim(*reg, sim_config);
  EXPECT_THROW(sim.run(program), FaultError);
  const std::vector<std::string> simulated =
      deterministic_event_multiset(sim.trace_events(), *reg);

  ASSERT_FALSE(threaded.empty());
  EXPECT_EQ(threaded, simulated);
  const bool has_fault =
      std::any_of(threaded.begin(), threaded.end(), [](const std::string& s) {
        return s.find("fault_raise op=boom") != std::string::npos;
      });
  EXPECT_TRUE(has_fault);
}

// ---------------------------------------------------------------------------
// Ring overflow
// ---------------------------------------------------------------------------

TEST(TraceEvents, TinyRingOverflowIsCountedNotFatal) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(R"(
    reduce(i, acc)
      if less_than(i, 200)
        then reduce(add(i, 1), add(acc, mul(i, 2)))
        else acc
    main() reduce(1, 0)
  )",
                                                *reg);
  RuntimeConfig config;
  config.num_workers = 2;
  config.enable_tracing = true;
  config.trace_capacity = 16;  // minimum ring size
  Runtime runtime(*reg, config);
  runtime.run(program);
  EXPECT_GT(runtime.trace_events_overwritten(), 0u);
  // Each surviving ring holds at most its capacity.
  EXPECT_LE(runtime.trace_events().size(), size_t{16} * 3);  // 2 workers + caller
  // Survivors are still seq-sorted.
  const auto& events = runtime.trace_events();
  for (size_t i = 1; i < events.size(); ++i) EXPECT_LT(events[i - 1].seq, events[i].seq);
}

TEST(TraceEvents, EnvKillSwitchDisablesConfiguredTracing) {
  ScopedEnv env = hermetic_env();
  env.set("DELIRIUM_TRACE", "0");
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  RuntimeConfig config;
  config.num_workers = 2;
  config.enable_tracing = true;  // env wins
  Runtime runtime(*reg, config);
  runtime.run(program);
  EXPECT_TRUE(runtime.trace_events().empty());

  SimConfig sim_config;
  sim_config.num_procs = 2;
  sim_config.enable_tracing = true;
  SimRuntime sim(*reg, sim_config);
  EXPECT_TRUE(sim.run(program).trace_events.empty());
}

TEST(TraceEvents, EnvEnablesTracingWithoutConfig) {
  ScopedEnv env = hermetic_env();
  env.set("DELIRIUM_TRACE", "1");
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  Runtime runtime(*reg, RuntimeConfig{});
  runtime.run(program);
  EXPECT_FALSE(runtime.trace_events().empty());
}

// ---------------------------------------------------------------------------
// Operator slices: the one pairing rule behind every per-operator timing
// ---------------------------------------------------------------------------

TEST(TraceEvents, OpSlicesSkipUnmatchedEndsAndOpenBegins) {
  // {ts, seq, arg, op, worker, kind}
  const std::vector<TraceEvent> events = {
      {10, 0, 0, 1, 0, TraceEventKind::kOpBegin},
      {15, 1, 0, 2, 0, TraceEventKind::kOpEnd},   // other operator: skipped
      {17, 2, 0, 1, 1, TraceEventKind::kOpEnd},   // nothing open on worker 1
      {20, 3, 0, 1, 0, TraceEventKind::kOpEnd},   // closes the begin at ts 10
      {30, 4, 2, 0, -1, TraceEventKind::kOpBegin},
      {25, 5, 2, 0, -1, TraceEventKind::kOpEnd},  // ends before it began
      {40, 6, 0, 3, 1, TraceEventKind::kOpBegin},  // never closed
  };
  const std::vector<OpSlice> slices = op_slices(events);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].op, 1);
  EXPECT_EQ(slices[0].worker, 0);
  EXPECT_EQ(slices[0].start, 10);
  EXPECT_EQ(slices[0].duration, 10);
  EXPECT_EQ(slices[0].attempt, 0);
  EXPECT_EQ(slices[1].op, 0);
  EXPECT_EQ(slices[1].worker, -1);
  EXPECT_EQ(slices[1].start, 30);
  EXPECT_EQ(slices[1].duration, 0);
  EXPECT_EQ(slices[1].attempt, 2);
}

TEST(TraceEvents, SimSlicesAreFixedCostsAndSumToOperatorTicks) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  const std::unordered_map<std::string, Ticks> costs = {{"add", 700}, {"mul", 1300}};
  for (int procs : {1, 4}) {
    SimConfig config;
    config.num_procs = procs;
    config.enable_tracing = true;
    config.fixed_costs = &costs;
    SimRuntime sim(*reg, config);
    const SimResult r = sim.run(program);
    const std::vector<OpSlice> slices = op_slices(r.trace_events);
    EXPECT_EQ(slices.size(), r.stats.operator_invocations) << "procs=" << procs;
    Ticks sum = 0;
    for (const OpSlice& s : slices) {
      EXPECT_EQ(s.duration, costs.at(reg->at(static_cast<size_t>(s.op)).info.name));
      sum += s.duration;
    }
    EXPECT_EQ(sum, r.stats.operator_ticks) << "procs=" << procs;
  }
}

TEST(TraceEvents, ThreadedSlicesCountEachOperatorsInvocations) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  std::atomic<uint64_t> a_calls{0};
  std::atomic<uint64_t> b_calls{0};
  reg->add("tick_a", 1, [&a_calls](OpContext& ctx) {
    ++a_calls;
    return Value::of(ctx.arg_int(0) + 1);
  });
  reg->add("tick_b", 1, [&b_calls](OpContext& ctx) {
    ++b_calls;
    return Value::of(ctx.arg_int(0) * 2);
  });
  CompiledProgram program = compile_unoptimized(R"(
    leaf(x) tick_b(tick_a(x))
    main() add(add(leaf(1), leaf(2)), add(leaf(3), tick_a(4)))
  )",
                                                *reg);
  for (int workers : {1, 4}) {
    a_calls = 0;
    b_calls = 0;
    RuntimeConfig config;
    config.num_workers = workers;
    config.enable_tracing = true;
    Runtime runtime(*reg, config);
    runtime.run(program);
    ASSERT_EQ(runtime.trace_events_overwritten(), 0u);
    std::map<std::string, uint64_t> per_op;
    uint64_t count = 0;
    Ticks sum = 0;
    for (const OpSlice& s : op_slices(runtime.trace_events())) {
      ++per_op[reg->at(static_cast<size_t>(s.op)).info.name];
      ++count;
      sum += s.duration;
    }
    EXPECT_EQ(per_op["tick_a"], a_calls.load()) << "workers=" << workers;
    EXPECT_EQ(per_op["tick_b"], b_calls.load()) << "workers=" << workers;
    EXPECT_EQ(per_op["add"], 3u) << "workers=" << workers;
    EXPECT_EQ(count, runtime.last_stats().operator_invocations) << "workers=" << workers;
    // The threaded runtime's operator time is the sum of its slices.
    EXPECT_EQ(runtime.last_stats().operator_ticks, sum) << "workers=" << workers;
  }
  // Untraced, it keeps no operator clock at all.
  RuntimeConfig untraced_config;
  untraced_config.num_workers = 2;
  Runtime untraced(*reg, untraced_config);
  untraced.run(program);
  EXPECT_EQ(untraced.last_stats().operator_ticks, 0);
}

TEST(TraceEvents, SlicesCountRetriedAttempts) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  reg->set_fault_plan(
      std::make_shared<const FaultPlan>(FaultPlan::parse("add:throw:every=3:seed=7:"
                                                         "fail_attempts=1")));
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);

  // A slice is one attempt: a retried invocation contributes one slice
  // per attempt, on both executors.
  RuntimeConfig config;
  config.num_workers = 4;
  config.enable_tracing = true;
  config.max_retries = 2;
  Runtime runtime(*reg, config);
  runtime.run(program);
  const RunStats& stats = runtime.last_stats();
  ASSERT_GT(stats.retries, 0u);
  EXPECT_EQ(op_slices(runtime.trace_events()).size(),
            stats.operator_invocations + stats.retries);

  SimConfig sim_config;
  sim_config.num_procs = 2;
  sim_config.enable_tracing = true;
  sim_config.max_retries = 2;
  SimRuntime sim(*reg, sim_config);
  const SimResult r = sim.run(program);
  EXPECT_EQ(r.stats.retries, stats.retries);
  EXPECT_EQ(op_slices(r.trace_events).size(), r.stats.operator_invocations + r.stats.retries);
}

TEST(TraceEvents, OperatorTicksUnderInjectedFaultsPerExecutor) {
  // What operator_ticks means once attempts fail or stall (RunStats):
  // the simulator charges each successful attempt's cost and nothing
  // else, while the threaded runtime sums every slice, failed attempts
  // and injected stalls included.
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  constexpr Ticks kStallNs = 200000;
  reg->set_fault_plan(std::make_shared<const FaultPlan>(
      FaultPlan::parse("add:throw:every=3:seed=7:fail_attempts=1,mul:stall=" +
                       std::to_string(kStallNs) + ":every=2:seed=3")));
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  auto slice_sum = [](const std::vector<TraceEvent>& events) {
    Ticks sum = 0;
    for (const OpSlice& s : op_slices(events)) sum += s.duration;
    return sum;
  };

  const std::unordered_map<std::string, Ticks> costs = {{"add", 700}, {"mul", 1300}};
  SimConfig sim_config;
  sim_config.num_procs = 2;
  sim_config.enable_tracing = true;
  sim_config.max_retries = 2;
  sim_config.fixed_costs = &costs;
  SimRuntime sim(*reg, sim_config);
  const SimResult r = sim.run(program);
  ASSERT_GT(r.stats.retries, 0u);
  const uint64_t sim_stalls = r.stats.faults_injected - r.stats.retries;
  ASSERT_GT(sim_stalls, 0u);
  // 11 adds and 8 muls, each charged once; a failed attempt's slice is
  // empty and a stall lies inside its slice but outside the charge.
  EXPECT_EQ(r.stats.operator_ticks, 11 * 700 + 8 * 1300);
  EXPECT_EQ(slice_sum(r.trace_events),
            r.stats.operator_ticks + static_cast<Ticks>(sim_stalls) * kStallNs);

  RuntimeConfig config;
  config.num_workers = 2;
  config.enable_tracing = true;
  config.max_retries = 2;
  Runtime runtime(*reg, config);
  runtime.run(program);
  const RunStats& stats = runtime.last_stats();
  EXPECT_EQ(stats.retries, r.stats.retries);
  EXPECT_EQ(stats.faults_injected - stats.retries, sim_stalls);
  EXPECT_EQ(op_slices(runtime.trace_events()).size(),
            stats.operator_invocations + stats.retries);
  EXPECT_EQ(stats.operator_ticks, slice_sum(runtime.trace_events()));
  EXPECT_GE(stats.operator_ticks, static_cast<Ticks>(sim_stalls) * kStallNs);
}

TEST(TraceEvents, RingKeepsTheSlicesItOverwrites) {
  // A hand-built single-worker stream through a 16-slot ring: the
  // retained window's slices plus overwritten_slices() must equal the
  // slices of the whole stream, whatever the window cuts through (a
  // trailing instant moves the cut from a begin to an end).
  int split_windows = 0;
  for (int pad = 0; pad < 2; ++pad) {
    for (int pairs = 0; pairs < 24; ++pairs) {
      std::vector<TraceEvent> stream;
      stream.reserve(2 * static_cast<size_t>(pairs) + 1);
      for (int i = 0; i < pairs; ++i) {
        const int32_t op = i % 3;
        const int64_t ts = 100 * i;
        stream.push_back({ts, stream.size(), 0, op, 0, TraceEventKind::kOpBegin});
        stream.push_back({ts + 10 + i, stream.size(), 0, op, 0, TraceEventKind::kOpEnd});
      }
      if (pad > 0) {
        stream.push_back({100 * pairs, stream.size(), 0, -1, 0, TraceEventKind::kSteal});
      }
      TraceRing ring;
      ring.init(16);
      for (const TraceEvent& e : stream) ring.push(e);
      std::vector<TraceEvent> window;
      ring.collect(window);
      if (ring.overwritten() > 0 && window.front().kind == TraceEventKind::kOpEnd) {
        ++split_windows;
      }
      std::vector<LogHistogram> got = op_histograms(window);
      ring.overwritten_slices(got);
      const std::vector<LogHistogram> want = op_histograms(stream);
      const std::string where =
          "pad=" + std::to_string(pad) + " pairs=" + std::to_string(pairs);
      ASSERT_EQ(got.size(), want.size()) << where;
      for (size_t op = 0; op < want.size(); ++op) {
        EXPECT_EQ(got[op].count(), want[op].count()) << where << " op=" << op;
        EXPECT_EQ(got[op].total(), want[op].total()) << where << " op=" << op;
        EXPECT_EQ(got[op].buckets(), want[op].buckets()) << where << " op=" << op;
      }
    }
  }
  EXPECT_GT(split_windows, 0);
}

TEST(TraceEvents, OverflowingRingsKeepCountsAndOperatorTicksExact) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  for (int workers : {1, 2}) {
    RuntimeConfig config;
    config.num_workers = workers;
    config.enable_tracing = true;
    config.trace_capacity = 16;
    Runtime runtime(*reg, config);
    runtime.run(program);
    ASSERT_GT(runtime.trace_events_overwritten(), 0u);
    std::vector<LogHistogram> by_op = op_histograms(runtime.trace_events());
    ASSERT_FALSE(runtime.trace_overwritten_slices().empty());
    uint64_t count = 0;
    Ticks ticks = 0;
    for (size_t op = 0; op < runtime.trace_overwritten_slices().size(); ++op) {
      if (op >= by_op.size()) by_op.resize(op + 1);
      by_op[op].merge(runtime.trace_overwritten_slices()[op]);
    }
    std::map<std::string, uint64_t> per_op;
    for (size_t op = 0; op < by_op.size(); ++op) {
      if (by_op[op].count() == 0) continue;
      per_op[reg->at(op).info.name] = by_op[op].count();
      count += by_op[op].count();
      ticks += by_op[op].total();
    }
    const std::map<std::string, uint64_t> want = {{"add", 11}, {"mul", 8}};
    EXPECT_EQ(per_op, want) << "workers=" << workers;
    EXPECT_EQ(count, runtime.last_stats().operator_invocations) << "workers=" << workers;
    EXPECT_EQ(runtime.last_stats().operator_ticks, ticks) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// RunStats reset between runs (regression: counters must not accumulate)
// ---------------------------------------------------------------------------

TEST(StatsReset, BackToBackRunsReportIdenticalCounters) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  RuntimeConfig config;
  config.num_workers = 2;
  Runtime runtime(*reg, config);

  runtime.run(program);
  const uint64_t nodes = runtime.last_stats().nodes_executed;
  const uint64_t invocations = runtime.last_stats().operator_invocations;
  const uint64_t activations = runtime.last_stats().activations_created;
  ASSERT_GT(nodes, 0u);

  for (int i = 0; i < 3; ++i) {
    runtime.run(program);
    EXPECT_EQ(runtime.last_stats().nodes_executed, nodes) << "run " << i;
    EXPECT_EQ(runtime.last_stats().operator_invocations, invocations) << "run " << i;
    EXPECT_EQ(runtime.last_stats().activations_created, activations) << "run " << i;
  }
}

TEST(StatsReset, TraceAndTimingsResetBetweenRuns) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  RuntimeConfig config;
  config.num_workers = 2;
  config.enable_tracing = true;
  Runtime runtime(*reg, config);

  runtime.run(program);
  // Raw stream size varies run-to-run (steal/park events depend on the
  // schedule); the deterministic projection and the slice count do not.
  const std::vector<std::string> first =
      deterministic_event_multiset(runtime.trace_events(), *reg);
  const size_t slice_count = op_slices(runtime.trace_events()).size();
  ASSERT_FALSE(first.empty());
  runtime.run(program);
  EXPECT_EQ(deterministic_event_multiset(runtime.trace_events(), *reg), first);
  EXPECT_EQ(op_slices(runtime.trace_events()).size(), slice_count);
}

TEST(StatsReset, FaultedRunDoesNotLeakIntoNextRun) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  reg->add("boom", 1, [](OpContext&) -> Value { throw RuntimeError("kaput"); }).pure();
  CompiledProgram faulty = compile_unoptimized("main() boom(1)", *reg);
  CompiledProgram clean = compile_unoptimized("main() add(1, 2)", *reg);

  RuntimeConfig config;
  config.num_workers = 2;
  Runtime runtime(*reg, config);
  EXPECT_THROW(runtime.run(faulty), FaultError);
  EXPECT_GT(runtime.last_stats().faults_raised, 0u);

  runtime.run(clean);
  EXPECT_EQ(runtime.last_stats().faults_raised, 0u);
  EXPECT_EQ(runtime.last_stats().items_purged, 0u);
  EXPECT_EQ(runtime.last_stats().retries, 0u);
}

TEST(StatsReset, FailedLookupStillResetsStats) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  RuntimeConfig config;
  config.num_workers = 2;
  Runtime runtime(*reg, config);
  runtime.run(program);
  ASSERT_GT(runtime.last_stats().nodes_executed, 0u);
  // A run that throws before any node executes must not leave the
  // previous run's counters visible.
  EXPECT_ANY_THROW(runtime.run_function(program, "no_such_function", {}));
  EXPECT_EQ(runtime.last_stats().nodes_executed, 0u);
}

TEST(StatsReset, SimBackToBackRunsReportIdenticalCounters) {
  ScopedEnv env = hermetic_env();
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_unoptimized(kFanProgram, *reg);
  SimConfig config;
  config.num_procs = 2;
  SimRuntime sim(*reg, config);
  // Makespan rests on measured wall-clock operator costs, so only the
  // structural counters are comparable across runs.
  const SimResult first = sim.run(program);
  const SimResult second = sim.run(program);
  EXPECT_EQ(first.stats.nodes_executed, second.stats.nodes_executed);
  EXPECT_EQ(first.stats.activations_created, second.stats.activations_created);
  EXPECT_EQ(first.stats.sched_local_enqueues, second.stats.sched_local_enqueues);
}

// ---------------------------------------------------------------------------
// Metrics: histogram unit behavior and the golden JSON file
// ---------------------------------------------------------------------------

TEST(Metrics, LogHistogramDeterministicPercentiles) {
  tools::LogHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0);
  for (int64_t v : {1, 2, 3, 100, 1000}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.total(), 1106);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  // rank ceil(0.5*5)=3 -> value 3 -> bucket bit_width(3)=2 -> 2^2-1.
  EXPECT_EQ(h.percentile(0.5), 3);
  // rank 5 -> value 1000 -> bucket bit_width(1000)=10 -> 1023.
  EXPECT_EQ(h.percentile(0.99), 1023);
}

RunStats golden_stats() {
  RunStats s;
  s.activations_created = 7;
  s.peak_live_activations = 3;
  s.nodes_executed = 42;
  s.operator_invocations = 12;
  s.operator_ticks = 48000;
  s.cow_copies = 2;
  s.cow_skipped = 5;
  s.sched_local_enqueues = 30;
  s.sched_injected_enqueues = 4;
  s.sched_steals = 3;
  s.sched_failed_steals = 9;
  s.sched_parks = 2;
  s.sched_wakeups = 2;
  s.sched_hint_promotions = 6;
  s.faults_raised = 1;
  s.faults_injected = 1;
  s.retries = 1;
  return s;
}

// The golden run's operators: index 0 is "convolve", 1 is "post_up".
std::shared_ptr<OperatorRegistry> golden_registry() {
  return testing::named_registry({"convolve", "post_up"});
}

std::vector<TraceEvent> golden_events() {
  return testing::op_pair_events({{0, 0, 100, 1500}, {0, 1, 400, 2500}, {1, 0, 2100, 300}});
}

TEST(Metrics, GoldenJson) {
  auto reg = golden_registry();
  tools::MetricsRegistry m;
  m.observe_run(golden_stats(), golden_events(), *reg);
  std::ostringstream os;
  m.to_json(os);

  std::ifstream golden(std::string(DELIRIUM_GOLDEN_DIR) + "/metrics.json");
  ASSERT_TRUE(golden.good()) << "missing tests/golden/metrics.json";
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(os.str(), want.str());
  expect_balanced_json(os.str());
}

TEST(Metrics, PrometheusShape) {
  auto reg = golden_registry();
  tools::MetricsRegistry m;
  m.observe_run(golden_stats(), golden_events(), *reg);
  m.observe_run(golden_stats(), golden_events(), *reg);  // counters sum, peak maxes
  std::ostringstream os;
  m.to_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("delirium_runs_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("delirium_nodes_executed 84\n"), std::string::npos);
  EXPECT_NE(text.find("delirium_peak_live_activations 3\n"), std::string::npos);
  EXPECT_NE(text.find("delirium_operator_duration_ns{operator=\"convolve\",quantile="
                      "\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("delirium_operator_duration_ns_count{operator=\"post_up\"} 2\n"),
            std::string::npos);
  // Every line is a comment or `name[{labels}] value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("delirium_", 0), 0u) << line;
  }
}

}  // namespace
}  // namespace delirium
