// Cross-cutting integration scenarios: several subsystems composed the
// way a downstream user would compose them.
#include <gtest/gtest.h>

#include <sstream>

#include "src/apps/grid/grid.h"
#include "src/apps/retina/retina_ops.h"
#include "src/delirium.h"
#include "src/runtime/sim.h"
#include "src/tools/profile.h"
#include "src/tools/report.h"
#include "src/tools/trace.h"

namespace delirium {
namespace {

TEST(Integration, TwoApplicationsShareOneRegistryAndRuntime) {
  // Retina and grid operators coexist in one registry; one runtime runs
  // both programs interleaved.
  retina::RetinaParams rp;
  rp.width = rp.height = 64;
  rp.num_targets = 8;
  rp.num_iter = 2;
  grid::GridParams gp;
  gp.width = gp.height = 32;
  gp.steps = 4;

  OperatorRegistry registry;
  register_builtin_operators(registry);
  retina::register_retina_operators(registry, rp);
  grid::register_grid_operators(registry, gp);

  CompiledProgram retina_prog =
      compile_or_throw(retina::retina_source(retina::RetinaVersion::kV2Balanced, rp), registry);
  CompiledProgram grid_prog = compile_or_throw(grid::grid_source(gp), registry);

  Runtime runtime(registry, {.num_workers = 3});
  for (int round = 0; round < 3; ++round) {
    Value r = runtime.run(retina_prog);
    EXPECT_EQ(retina::checksum(r.block_as<retina::RetinaModel>()),
              retina::checksum(retina::sequential_run(rp)));
    Value g = runtime.run(grid_prog);
    EXPECT_EQ(g.block_as<grid::Grid>().rows, grid::sequential_run(gp).rows);
  }
}

TEST(Integration, TimingReportHasThePaperFormat) {
  auto source = R"(
main()
  iterate { i = 0, incr(i) } while less_than(i, 3), result i
)";
  OperatorRegistry registry;
  register_builtin_operators(registry);
  CompiledProgram program = compile_or_throw(source, registry);
  RuntimeConfig config{.num_workers = 1};
  config.enable_tracing = true;
  Runtime runtime(registry, config);
  runtime.run(program);
  std::ostringstream os;
  tools::print_timing_trace(os, runtime.trace_events(), registry);
  // "call of incr took <ticks>" — the §5.2 diagnostic dump.
  EXPECT_NE(os.str().find("call of incr took "), std::string::npos);
  EXPECT_NE(os.str().find("call of less_than took "), std::string::npos);
}

TEST(Integration, SimTimingsFeedTheTraceExporter) {
  retina::RetinaParams p;
  p.width = p.height = 64;
  p.num_targets = 8;
  p.num_iter = 1;
  OperatorRegistry registry;
  register_builtin_operators(registry);
  retina::register_retina_operators(registry, p);
  CompiledProgram program =
      compile_or_throw(retina::retina_source(retina::RetinaVersion::kV2Balanced, p), registry);
  SimConfig config;
  config.num_procs = 4;
  config.enable_tracing = true;
  SimRuntime sim(registry, config);
  SimResult result = sim.run(program);
  ASSERT_FALSE(op_slices(result.trace_events).empty());
  std::ostringstream os;
  tools::write_trace_events(os, result.trace_events, registry);
  EXPECT_NE(os.str().find("convol_bite"), std::string::npos);
  // Aggregation over the same slices names every operator.
  const tools::CostProfile agg = tools::profile_from_trace(result.trace_events, registry);
  EXPECT_TRUE(agg.operators.count("convol_bite"));
  EXPECT_TRUE(agg.operators.count("update_bite"));
}

TEST(Integration, RunStatsAreConsistent) {
  OperatorRegistry registry;
  register_builtin_operators(registry);
  CompiledProgram program = compile_or_throw(R"(
f(x) add(x, 1)
main() add(f(1), f(2))
)",
                                             registry);
  Runtime runtime(registry, {.num_workers = 2});
  runtime.run(program);
  const RunStats& stats = runtime.last_stats();
  EXPECT_GE(stats.nodes_executed, stats.operator_invocations);
  EXPECT_GE(stats.peak_live_activations, 1u);
  EXPECT_LE(stats.peak_live_activations, stats.activations_created);
}

TEST(Integration, SimAndRuntimeAgreeOnEveryApp) {
  // Grid, both coordination styles, virtual vs threaded.
  grid::GridParams gp;
  gp.width = gp.height = 32;
  gp.steps = 3;
  OperatorRegistry registry;
  register_builtin_operators(registry);
  grid::register_grid_operators(registry, gp);
  for (const bool use_parmap : {false, true}) {
    CompiledProgram program = compile_or_throw(
        use_parmap ? grid::grid_source_parmap(gp) : grid::grid_source(gp), registry);
    Runtime threaded(registry, {.num_workers = 4});
    SimRuntime virtual_time(registry, {.num_procs = 4});
    const Value a = threaded.run(program);
    SimResult b = virtual_time.run(program);
    EXPECT_EQ(a.block_as<grid::Grid>().rows, b.result.block_as<grid::Grid>().rows)
        << (use_parmap ? "parmap" : "classic");
  }
}

TEST(Integration, GraphOptPreservesAppBehaviour) {
  // Compile the retina program with and without the graph optimizer; the
  // model must be bitwise identical either way.
  retina::RetinaParams p;
  p.width = p.height = 64;
  p.num_targets = 8;
  p.num_iter = 2;
  OperatorRegistry registry;
  register_builtin_operators(registry);
  retina::register_retina_operators(registry, p);
  const std::string source = retina::retina_source(retina::RetinaVersion::kV1Imbalanced, p);

  CompileOptions no_opt;
  no_opt.optimize = false;
  CompiledProgram plain = compile_or_throw(source, registry, no_opt);
  CompiledProgram pruned = compile_or_throw(source, registry, no_opt);
  optimize_graphs(pruned, registry);

  Runtime runtime(registry, {.num_workers = 2});
  Value a = runtime.run(plain);
  Value b = runtime.run(pruned);
  EXPECT_EQ(a.block_as<retina::RetinaModel>().motion, b.block_as<retina::RetinaModel>().motion);
}

TEST(Integration, AffinityModesOnThreadedRuntimeStayCorrect) {
  grid::GridParams gp;
  gp.width = gp.height = 32;
  gp.steps = 4;
  OperatorRegistry registry;
  register_builtin_operators(registry);
  grid::register_grid_operators(registry, gp);
  CompiledProgram program = compile_or_throw(grid::grid_source(gp), registry);
  const auto expected = grid::sequential_run(gp).rows;
  for (const auto affinity :
       {AffinityMode::kNone, AffinityMode::kOperator, AffinityMode::kData}) {
    RuntimeConfig config{.num_workers = 4};
    config.affinity = affinity;
    Runtime runtime(registry, config);
    EXPECT_EQ(runtime.run(program).block_as<grid::Grid>().rows, expected);
  }
}

TEST(Integration, NumaPenaltyOnThreadedRuntimeStaysCorrect) {
  grid::GridParams gp;
  gp.width = gp.height = 32;
  gp.steps = 2;
  OperatorRegistry registry;
  register_builtin_operators(registry);
  grid::register_grid_operators(registry, gp);
  CompiledProgram program = compile_or_throw(grid::grid_source(gp), registry);
  RuntimeConfig config{.num_workers = 2};
  config.affinity = AffinityMode::kData;
  config.topology = MemoryTopology::flat(100);
  Runtime runtime(registry, config);
  EXPECT_EQ(runtime.run(program).block_as<grid::Grid>().rows,
            grid::sequential_run(gp).rows);
}

}  // namespace
}  // namespace delirium
