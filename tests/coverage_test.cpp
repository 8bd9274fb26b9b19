// Focused coverage for corners the broader suites cross only
// incidentally: pretty-printer output details, registry metadata, dcc
// coordination-source structure, retina v1/v2 equivalence, circuit cone
// counts, and scheduler-affinity behaviour under replayed costs.
#include <gtest/gtest.h>

#include "src/apps/circuit/circuit.h"
#include "src/apps/dcc/dcc.h"
#include "src/apps/retina/retina_ops.h"
#include "src/delirium.h"
#include "src/lang/parser.h"
#include "src/lang/pretty.h"
#include "src/runtime/sim.h"

namespace delirium {
namespace {

// --- pretty printer -------------------------------------------------------

std::string reprint(const std::string& text) {
  SourceFile file("<t>", text);
  DiagnosticEngine diags;
  AstContext ctx;
  Program program = parse_source(file, ctx, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.summary(file);
  return program_to_string(program);
}

TEST(Pretty, FloatsAlwaysReparseAsFloats) {
  // 2.0 must not print as "2" (which would re-lex as an integer).
  EXPECT_NE(reprint("main() 2.0").find("2.0"), std::string::npos);
  EXPECT_NE(reprint("main() 0.5").find("0.5"), std::string::npos);
}

TEST(Pretty, StringsEscape) {
  const std::string out = reprint(R"(main() "a\nb\"c\\d")");
  EXPECT_NE(out.find(R"("a\nb\"c\\d")"), std::string::npos);
}

TEST(Pretty, ComputedCalleesAreParenthesized) {
  const std::string out = reprint("main() f(1)(2)");
  EXPECT_NE(out.find("(f(1))(2)"), std::string::npos);
}

TEST(Pretty, MacrosPrintAsDefines) {
  SourceFile file("<t>", "define N = 3\ndefine TW(x) = add(x, x)\nmain() TW(N)");
  DiagnosticEngine diags;
  AstContext ctx;
  Program program = parse_source(file, ctx, diags);
  const std::string out = program_to_string(program);
  EXPECT_NE(out.find("define N = 3"), std::string::npos);
  EXPECT_NE(out.find("define TW(x) = add(x, x)"), std::string::npos);
}

// --- registry metadata ----------------------------------------------------------

TEST(Registry, FluentAnnotationsStick) {
  OperatorRegistry reg;
  reg.add("op", 3, [](OpContext& ctx) { return ctx.take(0); })
      .destructive(0)
      .destructive(2)
      .variadic();
  const OperatorInfo* info = reg.lookup("op");
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->pure);
  EXPECT_TRUE(info->variadic);
  EXPECT_EQ(info->arity, 3);
  const OperatorDef& def = reg.at(static_cast<size_t>(reg.index_of("op")));
  EXPECT_TRUE(def.is_destructive(0));
  EXPECT_FALSE(def.is_destructive(1));
  EXPECT_TRUE(def.is_destructive(2));
  EXPECT_FALSE(def.is_destructive(7));  // out of range is simply "no"

  reg.add("p", 1, [](OpContext& ctx) { return ctx.take(0); }).pure();
  const OperatorInfo* pinfo = reg.lookup("p");
  ASSERT_NE(pinfo, nullptr);
  EXPECT_TRUE(pinfo->pure);
  EXPECT_FALSE(pinfo->any_destructive());
}

TEST(Registry, RejectsPureDestructiveContradiction) {
  // §2.1: purity promises no argument mutation, so an operator may not be
  // registered as both pure and destructive — in either order.
  OperatorRegistry reg;
  EXPECT_THROW(
      reg.add("pd", 1, [](OpContext& ctx) { return ctx.take(0); })
          .pure()
          .destructive(0),
      std::invalid_argument);
  EXPECT_THROW(
      reg.add("dp", 1, [](OpContext& ctx) { return ctx.take(0); })
          .destructive(0)
          .pure(),
      std::invalid_argument);
}

TEST(Registry, IndexAndLookupAgree) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  for (const char* name : {"incr", "add", "is_equal", "print", "range"}) {
    const int index = reg.index_of(name);
    ASSERT_GE(index, 0) << name;
    EXPECT_EQ(reg.at(static_cast<size_t>(index)).info.name, name);
    EXPECT_EQ(reg.lookup(name), &reg.at(static_cast<size_t>(index)).info);
  }
  EXPECT_EQ(reg.index_of("nonexistent"), -1);
  EXPECT_EQ(reg.lookup("nonexistent"), nullptr);
}

// --- dcc structure -----------------------------------------------------------------

TEST(DccStructure, CoordinationSourceHasOneForkJoinPerPass) {
  const std::string source = dcc::dcc_coordination_source();
  for (const char* op : {"parse_split", "macro_split", "env_split", "opt_split",
                         "graph_split", "parse_merge", "graph_merge", "opt_inline"}) {
    EXPECT_NE(source.find(op), std::string::npos) << op;
  }
  // Exactly kPieces piece-calls per pass.
  size_t count = 0;
  for (size_t pos = source.find("parse_piece("); pos != std::string::npos;
       pos = source.find("parse_piece(", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, static_cast<size_t>(dcc::kPieces));
}

TEST(DccStructure, PartitionUsesCachedWeights) {
  AstContext ctx;
  std::vector<FuncDecl*> funcs;
  for (int i = 0; i < 8; ++i) {
    FuncDecl* f =
        ctx.make_func(std::string("f").append(std::to_string(i)), {}, ctx.make_int(i));
    f->weight = static_cast<uint32_t>(100 * (i + 1));  // pretend-heavy
    funcs.push_back(f);
  }
  auto groups = dcc::partition_by_weight(funcs, 4);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, funcs.size());
}

// --- retina version equivalence ------------------------------------------------------

TEST(RetinaVersions, V1AndV2ComputeIdenticalModels) {
  retina::RetinaParams p;
  p.width = p.height = 64;
  p.num_targets = 10;
  p.num_iter = 2;
  OperatorRegistry registry;
  register_builtin_operators(registry);
  retina::register_retina_operators(registry, p);
  Runtime runtime(registry, {.num_workers = 3});
  const auto v1 = retina::delirium_run(p, retina::RetinaVersion::kV1Imbalanced, runtime);
  const auto v2 = retina::delirium_run(p, retina::RetinaVersion::kV2Balanced, runtime);
  EXPECT_EQ(v1.motion, v2.motion);
  EXPECT_EQ(v1.bipolar, v2.bipolar);
  EXPECT_EQ(v1.accum, v2.accum);
}

// --- circuit cones under varying piece counts ---------------------------------------------

TEST(CircuitCones, SequentialConeEvalMatchesFullEvalForAnyPieceCount) {
  circuit::CircuitParams p;
  p.num_gates = 1200;
  p.cycles = 8;
  const auto full = circuit::simulate_sequential(p);
  for (int pieces : {1, 2, 4, 7}) {
    const auto cones = circuit::simulate_sequential_cones(p, pieces);
    EXPECT_EQ(cones.signature, full.signature) << pieces << " pieces";
    EXPECT_EQ(cones.regs, full.regs) << pieces << " pieces";
  }
}

// --- affinity behaviour under replayed costs -------------------------------------------------

TEST(SimAffinity, DataAffinityReducesMigrations) {
  // Five persistent blocks relaxed repeatedly (the bench_affinity shape,
  // shrunk): with a remote penalty, data affinity must migrate blocks
  // strictly less often than no affinity.
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("mk", 1, [](OpContext& ctx) {
    return Value::block(std::vector<float>(1 << 14, static_cast<float>(ctx.arg_int(0))));
  });
  reg.add("touch", 1, [](OpContext& ctx) {
    auto& v = ctx.arg_block_mut<std::vector<float>>(0);
    v[0] += 1.0f;
    return ctx.take(0);
  }).destructive(0);
  std::string source = "main()\n  iterate {\n    t = 0, incr(t)\n";
  for (int g = 0; g < 5; ++g) {
    source += "    g" + std::to_string(g) + " = mk(" + std::to_string(g) + "), touch(g" +
              std::to_string(g) + ")\n";
  }
  source += "  } while is_not_equal(t, 16), result g0\n";
  CompiledProgram program = compile_or_throw(source, reg);
  const CostTable costs = calibrate_costs(reg, program, 2);

  auto moves_with = [&](AffinityMode affinity) {
    SimConfig config;
    config.num_procs = 4;
    config.replay_costs = &costs;
    config.topology = MemoryTopology::flat(1000);
    config.affinity = affinity;
    SimRuntime sim(reg, config);
    return sim.run(program).stats.remote_block_moves;
  };
  const uint64_t none = moves_with(AffinityMode::kNone);
  const uint64_t data = moves_with(AffinityMode::kData);
  EXPECT_LT(data, none);
}

}  // namespace
}  // namespace delirium
