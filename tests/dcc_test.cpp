// Case study #2 tests: the Delirium-coordinated compiler must accept the
// same programs as the sequential driver and produce graphs that execute
// to the same values, at any worker count.
#include <gtest/gtest.h>

#include "src/apps/dcc/dcc.h"
#include "src/apps/dcc/program_gen.h"
#include "src/delirium.h"
#include "src/runtime/sim.h"

namespace delirium::dcc {
namespace {

/// Compile `source` through the parallel pipeline; returns the output.
DccOutput parallel_compile(const std::string& source, int workers = 4) {
  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_dcc_operators(registry, source);
  CompileOptions copts;
  copts.optimize = false;  // the coordination framework is straight-line
  CompiledProgram coordination =
      compile_or_throw(dcc_coordination_source(), registry, copts);
  Runtime runtime(registry, {.num_workers = workers});
  Value result = runtime.run(coordination);
  return std::move(result.block_mut<DccOutput>());
}

int64_t run_main(const CompiledProgram& program) {
  OperatorRegistry registry;
  register_builtin_operators(registry);
  Runtime runtime(registry, {.num_workers = 2});
  return runtime.run(program).as_int();
}

TEST(ProgramGen, GeneratesCompilableSource) {
  GenParams params;
  params.num_functions = 30;
  params.seed = 3;
  const std::string source = generate_program(params);
  OperatorRegistry registry;
  register_builtin_operators(registry);
  CompileResult result = compile_source("<gen>", source, registry);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  EXPECT_GT(count_lines(source), 30u);
}

TEST(ProgramGen, IsDeterministicPerSeed) {
  GenParams params;
  params.seed = 11;
  EXPECT_EQ(generate_program(params), generate_program(params));
  GenParams other = params;
  other.seed = 12;
  EXPECT_NE(generate_program(params), generate_program(other));
}

TEST(ProgramGen, GeneratedProgramsEvaluateDeterministically) {
  GenParams params;
  params.num_functions = 20;
  params.body_size = 25;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    params.seed = seed;
    const std::string source = generate_program(params);
    OperatorRegistry registry;
    register_builtin_operators(registry);
    CompiledProgram program = compile_or_throw(source, registry);
    Runtime r1(registry, {.num_workers = 1});
    Runtime r4(registry, {.num_workers = 4});
    EXPECT_EQ(r1.run(program).as_int(), r4.run(program).as_int()) << "seed " << seed;
  }
}

TEST(PartitionByWeight, BalancesAndCoversAllFunctions) {
  AstContext ctx;
  std::vector<FuncDecl*> funcs;
  for (int i = 0; i < 40; ++i) {
    Expr* body = ctx.make_int(1);
    // Vary weight: function i has a chain of i applications.
    for (int k = 0; k < i; ++k) body = ctx.make_apply_named("incr", {body});
    funcs.push_back(ctx.make_func(std::string("f").append(std::to_string(i)), {}, body));
  }
  auto groups = partition_by_weight(funcs, 4);
  ASSERT_EQ(groups.size(), 4u);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, funcs.size());
  // Balanced within 2x of the ideal weight.
  uint64_t grand = 0;
  std::vector<uint64_t> weights;
  for (const auto& g : groups) {
    uint64_t w = 0;
    for (const FuncDecl* f : g) w += subtree_weight(f->body);
    weights.push_back(w);
    grand += w;
  }
  for (uint64_t w : weights) EXPECT_LE(w, grand / 2);
}

TEST(ParallelCompiler, CompilesTheQueensProgramShape) {
  const std::string source = R"(
define LIMIT = 4

fact(n)
  if less_than(n, 2) then 1 else mul(n, fact(decr(n)))

main()
  fact(LIMIT)
)";
  DccOutput out = parallel_compile(source);
  ASSERT_TRUE(out.ok) << out.diagnostics;
  EXPECT_EQ(run_main(*out.program), 24);
}

TEST(ParallelCompiler, MatchesSequentialCompilerOnGeneratedPrograms) {
  GenParams params;
  params.num_functions = 40;
  params.body_size = 30;
  for (uint64_t seed : {5ull, 6ull}) {
    params.seed = seed;
    const std::string source = generate_program(params);

    OperatorRegistry registry;
    register_builtin_operators(registry);
    CompileResult sequential = compile_source("<gen>", source, registry);
    ASSERT_TRUE(sequential.ok) << sequential.diagnostics;

    DccOutput out = parallel_compile(source);
    ASSERT_TRUE(out.ok) << out.diagnostics;

    // The two compilers may optimize differently (per-group inlining),
    // but the compiled programs must compute the same value.
    EXPECT_EQ(run_main(sequential.program), run_main(*out.program)) << "seed " << seed;
  }
}

TEST(ParallelCompiler, ResultIndependentOfWorkerCount) {
  GenParams params;
  params.num_functions = 25;
  params.seed = 9;
  const std::string source = generate_program(params);
  DccOutput a = parallel_compile(source, 1);
  DccOutput b = parallel_compile(source, 4);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.num_templates, b.num_templates);
  EXPECT_EQ(a.total_nodes, b.total_nodes);
  EXPECT_EQ(run_main(*a.program), run_main(*b.program));
}

TEST(ParallelCompiler, ReportsErrorsFromAnyGroup) {
  const std::string source = R"(
good(x) add(x, 1)
bad(x) add(x, unknown_name_here)
main() good(1)
)";
  DccOutput out = parallel_compile(source);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.diagnostics.find("unknown"), std::string::npos);
}

TEST(ParallelCompiler, RunsUnderVirtualTime) {
  GenParams params;
  params.num_functions = 30;
  params.seed = 4;
  const std::string source = generate_program(params);
  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_dcc_operators(registry, source);
  CompileOptions copts;
  copts.optimize = false;
  CompiledProgram coordination =
      compile_or_throw(dcc_coordination_source(), registry, copts);
  SimRuntime sim(registry, {.num_procs = 3});
  SimResult result = sim.run(coordination);
  EXPECT_GT(result.makespan, 0);
  DccOutput out = std::move(result.result.block_mut<DccOutput>());
  EXPECT_TRUE(out.ok) << out.diagnostics;
}

}  // namespace
}  // namespace delirium::dcc
