// GraphFacts engine tests: structure tables, interprocedural constants,
// liveness, static strandedness, critical-path heights, returns_fresh,
// the per-consumer kill switches, and the `--analyze` report contract
// (deterministic bytes, golden-tested schema).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>

#include "src/analysis/facts.h"
#include "src/delirium.h"
#include "src/tools/analysis_json.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ScopedEnv;

/// Every facts-related env knob, cleared for hermeticity: these tests
/// assert specific on/off behavior and must not inherit a CI job's
/// suite-wide exports.
constexpr std::initializer_list<const char*> kFactsEnv = {
    "DELIRIUM_GRAPH_FACTS",    "DELIRIUM_FACTS_FOLD", "DELIRIUM_FACTS_DEADPARAM",
    "DELIRIUM_FACTS_STRAND",   "DELIRIUM_FACTS_SOLE", "DELIRIUM_FACTS_FUSE",
    "DELIRIUM_FACTS_TUPLES",   "DELIRIUM_SCHED_HINTS", "DELIRIUM_COST_HINTS",
    "DELIRIUM_INJECT_FAULTS",  "DELIRIUM_RETRIES"};

OperatorRegistry& registry() {
  static OperatorRegistry r = [] {
    OperatorRegistry reg;
    register_builtin_operators(reg);
    reg.add("effectful", 1, [](OpContext& ctx) { return ctx.take(0); });
    reg.add("make", 1, [](OpContext& ctx) {
      return Value::block(std::vector<int64_t>(static_cast<size_t>(ctx.arg_int(0)), 0));
    });
    reg.add("poke", 2, [](OpContext& ctx) {
      auto& v = ctx.arg_block_mut<std::vector<int64_t>>(0);
      v[static_cast<size_t>(ctx.arg_int(1)) % v.size()] += ctx.arg_int(1);
      return ctx.take(0);
    }).destructive(0);
    reg.add("sum2", 2, [](OpContext& ctx) {
      int64_t total = 0;
      for (int64_t x : ctx.arg_block<std::vector<int64_t>>(0)) total += x;
      for (int64_t x : ctx.arg_block<std::vector<int64_t>>(1)) total += x;
      return Value::of(total);
    }).pure();
    return reg;
  }();
  return r;
}

/// Compile with AST optimization off so the graphs keep their calls and
/// the facts engine has real interprocedural structure to chew on.
CompileResult compile_no_opt(const std::string& source) {
  CompileOptions options;
  options.optimize = false;
  CompileResult result = compile_source("<facts-test>", source, registry(), options);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  return result;
}

uint32_t template_index(const CompiledProgram& program, const std::string& name) {
  for (uint32_t t = 0; t < program.templates.size(); ++t) {
    if (program.templates[t]->name == name) return t;
  }
  ADD_FAILURE() << "no template named " << name;
  return 0;
}

/// First node of `kind` in template `t`, or kNoNode.
uint32_t find_kind(const Template& t, NodeKind kind) {
  for (uint32_t i = 0; i < t.nodes.size(); ++i) {
    if (t.nodes[i].kind == kind) return i;
  }
  return 0xffffffffu;
}

// ---------------------------------------------------------------------------
// Structure
// ---------------------------------------------------------------------------

TEST(Facts, CallersClosureSitesAndCallOnly) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
helper(x) add(x, 1)
main()
  let f(y) helper(y)
  in add(helper(1), f(2))
)");
  ASSERT_TRUE(r.has_facts);
  const uint32_t helper = template_index(r.program, "helper");
  const uint32_t local = template_index(r.program, "main$f0");
  // helper is called from main and from the local function.
  EXPECT_EQ(r.facts.callers[helper].size(), 2u);
  // The local function is materialized as a closure, so it can never be
  // call-only; helper is named (reachable via run_function), same.
  EXPECT_EQ(r.facts.closure_sites[local].size(), 1u);
  EXPECT_FALSE(r.facts.call_only[helper]);
  EXPECT_FALSE(r.facts.call_only[local]);
}

// ---------------------------------------------------------------------------
// Interprocedural constants
// ---------------------------------------------------------------------------

TEST(Facts, PureConstantCallResultsAreKnown) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
fortytwo() mul(6, 7)
main() add(fortytwo(), 1)
)");
  ASSERT_TRUE(r.has_facts);
  const uint32_t main_t = template_index(r.program, "main");
  const Template& main_tmpl = *r.program.templates[main_t];
  const uint32_t call = find_kind(main_tmpl, NodeKind::kCall);
  ASSERT_NE(call, 0xffffffffu);
  ASSERT_TRUE(r.facts.constants[main_t][call].has_value());
  EXPECT_EQ(std::get<int64_t>(*r.facts.constants[main_t][call]), 42);
  const uint32_t ft = template_index(r.program, "fortytwo");
  EXPECT_TRUE(r.facts.pure_templates[ft]);
}

TEST(Facts, NamedTemplateParamsAreNeverAssumedConstant) {
  // helper(3) at every site — but helper is reachable by name through
  // run_function with arbitrary arguments, so its parameter must stay
  // unknown (the soundness contract of docs/ANALYSIS.md).
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
helper(x) add(x, 1)
main() add(helper(3), helper(3))
)");
  ASSERT_TRUE(r.has_facts);
  const uint32_t helper = template_index(r.program, "helper");
  EXPECT_FALSE(r.facts.param_constants[helper][0].has_value());
}

TEST(Facts, ConstantCapturesFlowIntoClosures) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
main()
  let c = 5
      f(x) add(x, c)
  in f(2)
)");
  ASSERT_TRUE(r.has_facts);
  const uint32_t local = template_index(r.program, "main$f0");
  const Template& t = *r.program.templates[local];
  // Explicit parameter x is filled at dynamic invocation sites: unknown.
  ASSERT_GE(t.num_params, 2u);
  EXPECT_FALSE(r.facts.param_constants[local][0].has_value());
  // The captured c is the constant 5 at the only closure site.
  const uint32_t capture = t.explicit_params();
  ASSERT_TRUE(r.facts.param_constants[local][capture].has_value());
  EXPECT_EQ(std::get<int64_t>(*r.facts.param_constants[local][capture]), 5);
}

TEST(Facts, ImpureOperatorsBlockConstantsAndPurity) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
noisy() effectful(7)
main() noisy()
)");
  ASSERT_TRUE(r.has_facts);
  const uint32_t noisy = template_index(r.program, "noisy");
  const uint32_t main_t = template_index(r.program, "main");
  EXPECT_FALSE(r.facts.pure_templates[noisy]);
  const uint32_t call = find_kind(*r.program.templates[main_t], NodeKind::kCall);
  ASSERT_NE(call, 0xffffffffu);
  EXPECT_FALSE(r.facts.constants[main_t][call].has_value());
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

TEST(Facts, DeadParameterOfLocalFunctionDetected) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
main()
  let f(x, y) x
  in f(7, add(1, 2))
)");
  ASSERT_TRUE(r.has_facts);
  const uint32_t local = template_index(r.program, "main$f0");
  ASSERT_EQ(r.facts.param_live[local].size(), 2u);
  EXPECT_TRUE(r.facts.param_live[local][0]);
  EXPECT_FALSE(r.facts.param_live[local][1]);
}

TEST(Facts, ImpureConsumersKeepParametersLive) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
first(a, b) a
main()
  let f(x, y) first(x, effectful(y))
  in f(7, 8)
)");
  // The effectful use of y must keep it live even though the value never
  // reaches the function's result.
  ASSERT_TRUE(r.has_facts);
  const uint32_t local = template_index(r.program, "main$f0");
  ASSERT_GE(r.facts.param_live[local].size(), 2u);
  EXPECT_TRUE(r.facts.param_live[local][1]);
}

// ---------------------------------------------------------------------------
// Static strandedness — the compile-time deadlock diagnostic
// ---------------------------------------------------------------------------

/// Unconditional self-recursion: every node fires exactly once per
/// activation, so loop() can never deliver. Before the facts engine this
/// program compiled cleanly and only the runtime watchdog caught it.
constexpr const char* kStrandedProgram = R"(
loop(n) loop(add(n, 1))
main() loop(1)
)";

TEST(Facts, StaticStrandednessPromotesRuntimeDeadlockToCompileError) {
  ScopedEnv env(kFactsEnv);
  CompileOptions options;
  options.verify = true;
  CompileResult r = compile_source("<stranded>", kStrandedProgram, registry(), options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.diagnostics.find("statically stranded"), std::string::npos) << r.diagnostics;
  EXPECT_NE(r.diagnostics.find("never delivers"), std::string::npos) << r.diagnostics;
}

TEST(Facts, StrandednessTablesNameTheDivergingTemplates) {
  ScopedEnv env(kFactsEnv);
  // Disable the diagnostic so the compile goes through, then inspect the
  // raw tables the verifier would have promoted.
  env.set("DELIRIUM_FACTS_STRAND", "0");
  CompileResult r = compile_source("<stranded>", kStrandedProgram, registry(), {});
  ASSERT_TRUE(r.ok) << r.diagnostics;

  const GraphFacts facts = compute_graph_facts(r.program, registry(), FactsOptions());
  const uint32_t loop = template_index(r.program, "loop");
  const uint32_t main_t = template_index(r.program, "main");
  EXPECT_FALSE(facts.delivers[loop]);
  EXPECT_FALSE(facts.delivers[main_t]);  // its result routes through loop()
  ASSERT_FALSE(facts.stranded.empty());
  // Deterministic ordering: template-major; within a template the
  // template-level fact (node == kNoNode) leads its node-level facts.
  auto key = [](const StrandedFact& f) {
    const int64_t node = f.node == StrandedFact::kNoNode ? -1 : static_cast<int64_t>(f.node);
    return std::make_pair(f.tmpl, node);
  };
  for (size_t i = 1; i < facts.stranded.size(); ++i) {
    EXPECT_TRUE(key(facts.stranded[i - 1]) <= key(facts.stranded[i])) << i;
  }
}

TEST(Facts, ConditionalRecursionIsNotStranded) {
  ScopedEnv env(kFactsEnv);
  CompileOptions options;
  options.verify = true;
  CompileResult r = compile_source("<fib>", R"(
fib(n)
  if less_than(n, 2)
    then n
    else add(fib(sub(n, 1)), fib(sub(n, 2)))
main() fib(10)
)",
                                   registry(), options);
  EXPECT_TRUE(r.ok) << r.diagnostics;
  ASSERT_TRUE(r.has_facts);
  EXPECT_TRUE(r.facts.stranded.empty());
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

TEST(Facts, HeightsMarkTheLongChainNotTheShallowOne) {
  ScopedEnv env(kFactsEnv);
  // add(deep, 7): the four-mul chain bounds the span; the literal 7 does
  // not. Exactly the shallow constant should be off the critical path.
  CompileResult r = compile_no_opt("main() add(mul(mul(mul(2, 2), 2), 2), 7)");
  ASSERT_TRUE(r.has_facts);
  EXPECT_GT(r.sched_hint_nodes, 0u);
  const uint32_t main_t = template_index(r.program, "main");
  const Template& t = *r.program.templates[main_t];
  EXPECT_GT(r.facts.template_height[main_t], 0);
  size_t off_path = 0;
  for (uint32_t i = 0; i < t.nodes.size(); ++i) {
    EXPECT_EQ(t.nodes[i].on_critical_path, r.facts.on_critical_path[main_t][i] != 0);
    off_path += t.nodes[i].on_critical_path ? 0 : 1;
  }
  EXPECT_GT(off_path, 0u);
  // The return's chain is maximal by construction.
  EXPECT_TRUE(t.nodes[t.return_node].on_critical_path);
}

TEST(Facts, CostHintsSteerEnqueuesAndAreKillSwitchable) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt("main() add(mul(mul(mul(2, 2), 2), 2), 7)");
  ASSERT_GT(r.sched_hint_nodes, 0u);

  RuntimeConfig config;
  config.num_workers = 2;
  Runtime with_hints(registry(), config);
  EXPECT_EQ(with_hints.run(r.program).as_int(), 23);
  EXPECT_GT(with_hints.last_stats().sched_hint_promotions, 0u);

  env.set("DELIRIUM_COST_HINTS", "0");
  Runtime without(registry(), config);
  EXPECT_EQ(without.run(r.program).as_int(), 23);
  EXPECT_EQ(without.last_stats().sched_hint_promotions, 0u);
}

TEST(Facts, HintPromotionCountIsDeterministicAcrossTheMatrix) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = compile_no_opt(R"(
step(x) add(mul(x, 3), 1)
main() add(step(step(step(1))), add(step(2), 7))
)");
  ASSERT_TRUE(r.has_facts);
  testing::ExecutorFixture fixture(registry());
  const testing::ExecutorOutcome ref = fixture.expect_equivalent(r.program);
  for (const testing::ExecutorSpec& spec : fixture.matrix()) {
    const testing::ExecutorOutcome got = fixture.run_on(r.program, spec);
    EXPECT_EQ(got.stats.sched_hint_promotions, ref.stats.sched_hint_promotions)
        << spec.name();
  }
}

// ---------------------------------------------------------------------------
// returns_fresh and the sole-consumer upgrade
// ---------------------------------------------------------------------------

TEST(Facts, FreshReturnsUpgradeCallResultsToUnique) {
  ScopedEnv env(kFactsEnv);
  // fresh() manufactures its block from a literal inside the activation;
  // the caller's poke of the call result is provably unique, so the CoW
  // test and the clone are both elided. Intraprocedurally this edge was
  // kUnknown. (make(n) with a *parameter* would NOT be fresh: an
  // operator may pass an argument through, and params alias the caller.)
  CompileResult r = compile_no_opt(R"(
fresh() make(8)
main() sum2(poke(fresh(), 3), make(1))
)");
  ASSERT_TRUE(r.has_facts);
  const uint32_t fresh = template_index(r.program, "fresh");
  EXPECT_TRUE(r.facts.returns_fresh[fresh]);
  EXPECT_GT(r.sole_consumer.unique_edges, 0u);

  // The upgrade has its own kill switch.
  env.set("DELIRIUM_FACTS_SOLE", "0");
  CompileResult off = compile_no_opt(R"(
fresh() make(8)
main() sum2(poke(fresh(), 3), make(1))
)");
  EXPECT_EQ(off.sole_consumer.unique_edges, 0u);
}

// ---------------------------------------------------------------------------
// Kill switches
// ---------------------------------------------------------------------------

TEST(Facts, MasterSwitchDisablesTheEngine) {
  ScopedEnv env(kFactsEnv);
  env.set("DELIRIUM_GRAPH_FACTS", "0");
  CompileResult r = compile_no_opt("main() add(1, 2)");
  EXPECT_FALSE(r.has_facts);
  EXPECT_EQ(r.sched_hint_nodes, 0u);
  // The stranded program compiles again — pre-facts behavior restored.
  CompileOptions options;
  options.verify = true;
  CompileResult stranded =
      compile_source("<stranded>", kStrandedProgram, registry(), options);
  EXPECT_TRUE(stranded.ok) << stranded.diagnostics;
}

TEST(Facts, SchedHintSwitchZeroesTheMarks) {
  ScopedEnv env(kFactsEnv);
  env.set("DELIRIUM_SCHED_HINTS", "0");
  CompileResult r = compile_no_opt("main() add(mul(mul(2, 2), 2), 7)");
  ASSERT_TRUE(r.has_facts);
  EXPECT_EQ(r.sched_hint_nodes, 0u);
  for (const auto& t : r.program.templates) {
    for (const Node& n : t->nodes) EXPECT_FALSE(n.on_critical_path);
  }
}

// ---------------------------------------------------------------------------
// Rewrites preserve behavior across the whole executor matrix
// ---------------------------------------------------------------------------

/// Node ids and sequence numbers legitimately shift when rewrites remove
/// nodes; scrubbing digits compares everything else about a fault report
/// (operator, template names, stack shape) byte for byte.
std::string scrub_digits(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c >= '0' && c <= '9') c = '#';
  }
  return out;
}

/// Compile `source` twice — facts-driven rewrites on and off — and prove
/// the two programs agree on values, fault behavior, and (digit-scrubbed)
/// error text everywhere the fixture runs (threaded × {1, 2, 8}
/// workers, sim × {1, 4} procs); each program additionally proves its
/// own byte-identical error text and trace-multiset determinism across
/// the matrix inside expect_equivalent. AST inlining is off so the
/// cross-function folding under test happens at the graph level, not
/// upstream in the tree optimizer.
CompileResult expect_rewrites_preserve(const OperatorRegistry& reg,
                                       const std::string& source) {
  CompileOptions options;
  options.optimize = true;
  options.opt.inline_expansion = false;
  CompileResult optimized = compile_source("<opt>", source, reg, options);
  EXPECT_TRUE(optimized.ok) << optimized.diagnostics;
  if (!optimized.ok) return optimized;

  CompiledProgram plain = [&] {
    ScopedEnv env({"DELIRIUM_GRAPH_FACTS"});
    env.set("DELIRIUM_GRAPH_FACTS", "0");
    CompileResult r = compile_source("<plain>", source, reg, options);
    EXPECT_TRUE(r.ok) << r.diagnostics;
    return std::move(r.program);
  }();

  testing::ExecutorFixture fixture(reg);
  const testing::ExecutorOutcome a = fixture.expect_equivalent(optimized.program);
  const testing::ExecutorOutcome b = fixture.expect_equivalent(plain);
  EXPECT_EQ(a.faulted(), b.faulted());
  if (a.faulted() && b.faulted()) {
    EXPECT_EQ(scrub_digits(a.error_text), scrub_digits(b.error_text));
    EXPECT_EQ(a.stats.faults_raised, b.stats.faults_raised);
    EXPECT_EQ(a.stats.faults_injected, b.stats.faults_injected);
  } else if (!a.faulted() && !b.faulted()) {
    EXPECT_TRUE(deep_equal(a.value, b.value));
  }
  return optimized;
}

TEST(FactsEquivalence, FoldedCallsProduceIdenticalValues) {
  ScopedEnv env(kFactsEnv);
  CompileResult r = expect_rewrites_preserve(registry(), R"(
base() mul(6, 7)
twice() add(base(), base())
main() add(twice(), mul(base(), 2))
)");
  // The rewrite actually fired: this is a fold-vs-no-fold comparison,
  // not two identical programs.
  EXPECT_GT(r.graph_opt_stats.consts_folded, 0u);
}

TEST(FactsEquivalence, DeadCapturePruningPreservesValues) {
  ScopedEnv env(kFactsEnv);
  // drop()'s second parameter is dead (named template: detected, kept).
  // The closure f uses its capture c only to feed that dead parameter,
  // so the capture is interprocedurally dead and — f being anonymous —
  // actually pruned, along with the chain that fed it. c is a call
  // result, not a literal: the AST optimizer cannot substitute it into
  // the closure body, so the capture genuinely reaches the graph pass.
  CompileResult r = expect_rewrites_preserve(registry(), R"(
drop(a, b) a
base() mul(6, 7)
main()
  let c = base()
      f(x) drop(x, c)
  in add(f(3), f(4))
)");
  EXPECT_GT(r.graph_opt_stats.dead_params_pruned, 0u);
  EXPECT_GT(r.graph_opt_stats.dead_nodes_removed, 0u);
}

TEST(FactsEquivalence, FoldingCannotSwallowAFaultFromAnImpureOp) {
  ScopedEnv env(kFactsEnv);
  // `base()` is foldable; the effectful op next to it throws via the
  // injection plan. Folding must not change which fault surfaces or its
  // report text — the impure op is never folded, so the fault survives.
  env.set("DELIRIUM_INJECT_FAULTS", "effectful:throw");
  expect_rewrites_preserve(registry(), R"(
base() mul(6, 7)
main() add(effectful(1), base())
)");
}

TEST(FactsEquivalence, RetriedFaultsMatchUnderInjection) {
  ScopedEnv env(kFactsEnv);
  // A transient fault (fails once, then succeeds under retry) on the
  // impure op, with the pure neighbor folded: the retried run must still
  // deliver the right value with identical retry counters everywhere.
  env.set("DELIRIUM_INJECT_FAULTS", "effectful:throw:fail_attempts=1");

  CompileResult optimized = compile_source("<opt>", R"(
base() mul(6, 7)
main() add(effectful(1), base())
)",
                                           registry(), {});
  ASSERT_TRUE(optimized.ok) << optimized.diagnostics;

  testing::ExecutorFixture fixture(registry());
  fixture.config().max_retries = 2;
  const testing::ExecutorOutcome ref = fixture.expect_equivalent(optimized.program);
  ASSERT_FALSE(ref.faulted()) << ref.error_text;
  EXPECT_EQ(ref.value.as_int(), 43);
  EXPECT_EQ(ref.stats.retries, 1u);
}

// ---------------------------------------------------------------------------
// The --analyze report
// ---------------------------------------------------------------------------

/// The golden program exercises every section: a pure constant-returning
/// helper, a local function with a dead parameter, and a destructive use
/// of a shared block (one lint warning).
constexpr const char* kAnalyzeProgram = R"(
fortytwo() mul(6, 7)
main()
  let b = make(8)
      f(x, y) x
  in sum2(poke(b, f(fortytwo(), 3)), b)
)";

TEST(Analyze, JsonMatchesGoldenFile) {
  ScopedEnv env(kFactsEnv);
  CompileResult result = compile_no_opt(kAnalyzeProgram);
  SourceFile file("analyze_shared.dlr", kAnalyzeProgram);
  const std::string json = tools::render_analysis_json(result, file);

  const std::string golden_path = std::string(DELIRIUM_GOLDEN_DIR) + "/analyze_shared.json";
  if (std::getenv("DELIRIUM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden_path) << json;
  }
  std::ifstream golden(golden_path);
  ASSERT_TRUE(golden.good()) << "missing golden file";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(json, expected.str());
}

TEST(Analyze, ReportBytesAreDeterministicAcrossRecompiles) {
  ScopedEnv env(kFactsEnv);
  SourceFile file("analyze_shared.dlr", kAnalyzeProgram);
  CompileResult a = compile_no_opt(kAnalyzeProgram);
  CompileResult b = compile_no_opt(kAnalyzeProgram);
  EXPECT_EQ(tools::render_analysis_json(a, file), tools::render_analysis_json(b, file));
  EXPECT_EQ(tools::render_analysis_text(a, file), tools::render_analysis_text(b, file));
}

TEST(Analyze, TextReportNamesEverySection) {
  ScopedEnv env(kFactsEnv);
  CompileResult result = compile_no_opt(kAnalyzeProgram);
  SourceFile file("analyze_shared.dlr", kAnalyzeProgram);
  const std::string text = tools::render_analysis_text(result, file);
  EXPECT_NE(text.find("template 'main'"), std::string::npos) << text;
  EXPECT_NE(text.find("template 'fortytwo'"), std::string::npos) << text;
  EXPECT_NE(text.find("dead params"), std::string::npos) << text;
  EXPECT_NE(text.find("analysis: lint:"), std::string::npos) << text;
  EXPECT_NE(text.find("analysis: sched hints:"), std::string::npos) << text;
}

}  // namespace
}  // namespace delirium
