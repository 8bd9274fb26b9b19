// Virtual-time scheduler tests: value equivalence with the threaded
// runtime, makespan properties, cost replay, and the NUMA model.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/dcc/program_gen.h"
#include "src/delirium.h"
#include "src/runtime/sim.h"

namespace delirium {
namespace {

OperatorRegistry& registry() {
  static OperatorRegistry r = [] {
    OperatorRegistry reg;
    register_builtin_operators(reg);
    reg.add("make_data", 0, [](OpContext&) {
      return Value::block(std::vector<double>(1 << 12, 1.0));
    });
    reg.add("touch", 1, [](OpContext& ctx) { return ctx.take(0); }).destructive(0);
    return reg;
  }();
  return r;
}

TEST(Sim, AgreesWithThreadedRuntimeOnGeneratedPrograms) {
  for (uint64_t seed : {31ull, 32ull, 33ull}) {
    dcc::GenParams params;
    params.num_functions = 15;
    params.seed = seed;
    const std::string source = dcc::generate_program(params);
    CompiledProgram program = compile_or_throw(source, registry());
    Runtime threaded(registry(), {.num_workers = 3});
    SimRuntime virtual_time(registry(), {.num_procs = 3});
    EXPECT_EQ(threaded.run(program).as_int(), virtual_time.run(program).result.as_int())
        << "seed " << seed;
  }
}

TEST(Sim, MakespanPositiveAndBusyConsistent) {
  CompiledProgram program = compile_or_throw("main() add(1, 2)", registry());
  SimRuntime sim(registry(), {.num_procs = 2});
  SimResult result = sim.run(program);
  EXPECT_GT(result.makespan, 0);
  EXPECT_GT(result.total_busy, 0);
  EXPECT_EQ(result.proc_busy.size(), 2u);
  EXPECT_EQ(result.result.as_int(), 3);
}

TEST(Sim, MoreProcessorsNeverSlowerUnderReplay) {
  // With a fixed cost table the schedule is deterministic; extra
  // processors cannot hurt a greedy pull scheduler on a fork-join graph.
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("work", 1, [](OpContext& ctx) {
    volatile double acc = 0;
    for (int i = 0; i < 20000; ++i) acc = acc + i;
    (void)acc;
    return ctx.take(0);
  }).pure();
  std::string source = "main()\n  let\n";
  for (int i = 0; i < 8; ++i) {
    source += "    x" + std::to_string(i) + " = work(" + std::to_string(i) + ")\n";
  }
  source += "  in add(add(add(x0, x1), add(x2, x3)), add(add(x4, x5), add(x6, x7)))\n";
  CompiledProgram program = compile_or_throw(source, reg);
  const CostTable costs = calibrate_costs(reg, program, 3);
  Ticks prev = std::numeric_limits<Ticks>::max();
  for (int procs : {1, 2, 4, 8}) {
    SimConfig config;
    config.num_procs = procs;
    config.replay_costs = &costs;
    SimRuntime sim(reg, config);
    const Ticks makespan = sim.run(program).makespan;
    EXPECT_LE(makespan, prev) << procs << " processors";
    prev = makespan;
  }
}

TEST(Sim, EightIndependentTasksScalePastFour) {
  // Same workload: speedup at 8 procs must approach 8 for the parallel
  // section (modulo the join chain).
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("work", 1, [](OpContext& ctx) {
    volatile double acc = 0;
    for (int i = 0; i < 200000; ++i) acc = acc + i;
    (void)acc;
    return ctx.take(0);
  }).pure();
  std::string source = "main()\n  let\n";
  for (int i = 0; i < 8; ++i) {
    source += "    x" + std::to_string(i) + " = work(" + std::to_string(i) + ")\n";
  }
  source += "  in add(add(add(x0, x1), add(x2, x3)), add(add(x4, x5), add(x6, x7)))\n";
  CompiledProgram program = compile_or_throw(source, reg);
  const CostTable costs = calibrate_costs(reg, program, 3);
  auto makespan_at = [&](int procs) {
    SimConfig config;
    config.num_procs = procs;
    config.replay_costs = &costs;
    SimRuntime sim(reg, config);
    return static_cast<double>(sim.run(program).makespan);
  };
  // Thresholds leave headroom for calibration noise under background
  // load on the single-core host (ideal: 8x and 2x).
  const double one = makespan_at(1);
  EXPECT_GT(one / makespan_at(8), 3.5);
  EXPECT_GT(one / makespan_at(2), 1.5);
}

TEST(Sim, CostReplayMakesMakespanReproducible) {
  CompiledProgram program = compile_or_throw(
      "main() iterate { i = 0, incr(i) } while less_than(i, 50), result i", registry());
  const CostTable costs = calibrate_costs(registry(), program, 3);
  SimConfig config;
  config.num_procs = 2;
  config.replay_costs = &costs;
  SimRuntime a(registry(), config);
  SimRuntime b(registry(), config);
  EXPECT_EQ(a.run(program).makespan, b.run(program).makespan);
}

TEST(Sim, CalibrationCoversEveryOperatorInvocation) {
  CompileOptions no_opt;
  no_opt.optimize = false;  // otherwise the expression folds away
  CompiledProgram program =
      compile_or_throw("main() add(incr(1), incr(2))", registry(), no_opt);
  const CostTable costs = calibrate_costs(registry(), program, 2);
  EXPECT_EQ(costs.per_op.at("incr").size(), 2u);
  EXPECT_EQ(costs.per_op.at("add").size(), 1u);
}

TEST(Sim, ReplayPastItsTableChargesTheDefaultCost) {
  // An operator missing from the replay table, or invoked past the end
  // of its row, costs fixed_cost_default_ns rather than its measured
  // wall time, so a short table still replays deterministically.
  CompileOptions no_opt;
  no_opt.optimize = false;
  CompiledProgram program = compile_or_throw(
      "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
      "main() fib(8)\n",
      registry(), no_opt);
  using Event = std::tuple<int64_t, uint64_t, int64_t, int32_t, int16_t, TraceEventKind>;
  auto run = [&](SimConfig config) {
    config.num_procs = 3;
    config.enable_tracing = true;
    config.fixed_cost_default_ns = 700;
    SimRuntime sim(registry(), config);
    const Ticks makespan = sim.run(program).makespan;
    std::vector<Event> trace;
    for (const TraceEvent& e : sim.trace_events()) {
      trace.emplace_back(e.ts, e.seq, e.arg, e.op, e.worker, e.kind);
    }
    return std::make_pair(makespan, trace);
  };

  const CostTable empty;
  const std::unordered_map<std::string, Ticks> no_fixed_costs;
  SimConfig replay_empty;
  replay_empty.replay_costs = &empty;
  SimConfig fixed_default;
  fixed_default.fixed_costs = &no_fixed_costs;
  const auto replayed = run(replay_empty);
  const auto fixed = run(fixed_default);
  EXPECT_EQ(replayed.first, fixed.first);
  EXPECT_EQ(replayed.second, fixed.second);

  // Every row cut in half: the second half of each operator's calls runs
  // past its row.
  CostTable truncated = calibrate_costs(registry(), program, 1);
  for (auto& [op, row] : truncated.per_op) row.resize(row.size() / 2);
  SimConfig replay_truncated;
  replay_truncated.replay_costs = &truncated;
  EXPECT_EQ(run(replay_truncated).first, run(replay_truncated).first);
}

TEST(Sim, NumaModelChargesRemoteTouches) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("make_data", 0, [](OpContext&) {
    return Value::block(std::vector<double>(1 << 14, 1.0));  // 128 KiB
  });
  reg.add("touch", 1, [](OpContext& ctx) { return ctx.take(0); }).destructive(0);
  reg.add("join2", 2, [](OpContext&) { return Value::of(int64_t{1}); });
  // Two blocks produced and touched in parallel, then joined: on 2
  // processors the join necessarily sees at least one remote block.
  CompiledProgram program = compile_or_throw(R"(
main()
  let a = touch(make_data())
      b = touch(make_data())
  in join2(a, b)
)",
                                             reg);
  SimConfig config;
  config.num_procs = 2;
  config.topology = MemoryTopology::flat(1000);
  SimRuntime sim(reg, config);
  SimResult with_numa = sim.run(program);
  EXPECT_GE(with_numa.stats.remote_block_moves, 1u);
  EXPECT_EQ(with_numa.result.as_int(), 1);

  // The same program with no penalty reports no moves.
  SimConfig uma = config;
  uma.topology = MemoryTopology::uma();
  SimRuntime sim_uma(reg, uma);
  EXPECT_EQ(sim_uma.run(program).stats.remote_block_moves, 0u);
}

TEST(Sim, NegativeCostsCountAsZero) {
  // Virtual time never runs backwards: the ready queue releases work
  // behind a monotone pick-time watermark, so a negative configured
  // cost schedules exactly like a zero one.
  CompiledProgram program = compile_or_throw(
      "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
      "main() fib(7)",
      registry());
  auto run = [&](int64_t overhead, const std::unordered_map<std::string, Ticks>& costs,
                 Ticks default_cost) {
    SimConfig config;
    config.num_procs = 3;
    config.node_overhead_ns = overhead;
    config.fixed_costs = &costs;
    config.fixed_cost_default_ns = default_cost;
    config.enable_tracing = true;
    return SimRuntime(registry(), config).run(program);
  };
  const std::unordered_map<std::string, Ticks> negative = {{"add", -700}, {"sub", 300}};
  const std::unordered_map<std::string, Ticks> zero = {{"add", 0}, {"sub", 300}};
  const SimResult clamped = run(-300, negative, -50);
  const SimResult reference = run(0, zero, 0);
  EXPECT_EQ(clamped.result.as_int(), 13);
  EXPECT_GT(reference.makespan, 0);
  EXPECT_EQ(clamped.makespan, reference.makespan);
  EXPECT_EQ(clamped.proc_busy, reference.proc_busy);
  ASSERT_EQ(clamped.trace_events.size(), reference.trace_events.size());
  for (size_t i = 0; i < clamped.trace_events.size(); ++i) {
    const TraceEvent& a = clamped.trace_events[i];
    const TraceEvent& b = reference.trace_events[i];
    EXPECT_TRUE(a.ts == b.ts && a.kind == b.kind && a.op == b.op && a.worker == b.worker)
        << "trace event " << i;
  }
}

}  // namespace
}  // namespace delirium
