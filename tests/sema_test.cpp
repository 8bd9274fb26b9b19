// Environment analysis unit tests: name resolution, arity checks, single
// assignment, recursion detection, and the call graph.
#include <gtest/gtest.h>

#include "src/lang/macro.h"
#include "src/lang/parser.h"
#include "src/runtime/registry.h"
#include "src/sema/env_analysis.h"

namespace delirium {
namespace {

struct Analyzed {
  AstContext ctx;
  Program program;
  DiagnosticEngine diags;
  AnalysisResult result;
  std::string summary;
};

std::unique_ptr<Analyzed> analyze(const std::string& text, AnalysisOptions options = {}) {
  auto out = std::make_unique<Analyzed>();
  SourceFile file("<test>", text);
  out->program = parse_source(file, out->ctx, out->diags);
  expand_macros(out->program, out->ctx, out->diags);
  static OperatorRegistry registry = [] {
    OperatorRegistry r;
    register_builtin_operators(r);
    return r;
  }();
  out->result = analyze_environment(out->program, registry, out->diags, options);
  out->summary = out->diags.summary(file);
  return out;
}

TEST(Sema, AcceptsWellFormedProgram) {
  auto a = analyze("main() add(1, 2)");
  EXPECT_TRUE(a->result.ok) << a->summary;
}

TEST(Sema, UnknownNameIsError) {
  auto a = analyze("main() no_such_thing(1)");
  EXPECT_FALSE(a->result.ok);
  EXPECT_NE(a->summary.find("no_such_thing"), std::string::npos);
}

TEST(Sema, UnknownVariableIsError) {
  auto a = analyze("main() let x = 1 in y");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, OperatorArityChecked) {
  auto a = analyze("main() add(1)");
  EXPECT_FALSE(a->result.ok);
  EXPECT_NE(a->summary.find("expects 2"), std::string::npos);
}

TEST(Sema, FunctionArityChecked) {
  auto a = analyze("f(x, y) add(x, y)\nmain() f(1)");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, LocalFunctionArityChecked) {
  auto a = analyze("main() let g(x) x in g(1, 2)");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, ClosureCallThroughValueNotStaticallyChecked) {
  auto a = analyze(R"(
apply(f) f(1, 2, 3)
bump(x) x
main() apply(bump)
)");
  EXPECT_TRUE(a->result.ok) << a->summary;  // checked at run time instead
}

TEST(Sema, MissingMainIsError) {
  auto a = analyze("f() 1");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, MainWithParamsIsError) {
  auto a = analyze("main(x) x");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, MissingMainAllowedWhenConfigured) {
  AnalysisOptions options;
  options.require_main = false;
  auto a = analyze("f() 1", options);
  EXPECT_TRUE(a->result.ok) << a->summary;
}

TEST(Sema, DuplicateFunctionIsError) {
  auto a = analyze("f() 1\nf() 2\nmain() f()");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, DuplicateParamsViolateSingleAssignment) {
  auto a = analyze("f(a, a) a\nmain() f(1, 2)");
  EXPECT_FALSE(a->result.ok);
  EXPECT_NE(a->summary.find("single assignment"), std::string::npos);
}

TEST(Sema, DuplicateLetBindingViolatesSingleAssignment) {
  auto a = analyze("main() let x = 1 x = 2 in x");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, ShadowingInNestedLetIsAllowed) {
  auto a = analyze("main() let x = 1 in let x = 2 in x");
  EXPECT_TRUE(a->result.ok) << a->summary;
}

TEST(Sema, DuplicateLoopVarsAreError) {
  auto a = analyze("main() iterate { i = 0, i  i = 1, i } while 0, result i");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, IterateResultMustBeLoopVar) {
  auto a = analyze("main() let z = 1 in iterate { i = 0, incr(i) } while 0, result z");
  EXPECT_FALSE(a->result.ok);
}

TEST(Sema, OperatorAsValueIsError) {
  auto a = analyze("apply(f) f(1)\nmain() apply(incr)");
  EXPECT_FALSE(a->result.ok);
  EXPECT_NE(a->summary.find("wrap it in a function"), std::string::npos);
}

TEST(Sema, FunctionAsValueIsAllowed) {
  auto a = analyze("apply(f) f(1)\nbump(x) incr(x)\nmain() apply(bump)");
  EXPECT_TRUE(a->result.ok) << a->summary;
}

TEST(Sema, DetectsSelfRecursion) {
  auto a = analyze("fact(n) if n then mul(n, fact(decr(n))) else 1\nmain() fact(3)");
  ASSERT_TRUE(a->result.ok) << a->summary;
  EXPECT_TRUE(a->result.is_recursive("fact"));
  EXPECT_FALSE(a->result.is_recursive("main"));
}

TEST(Sema, DetectsMutualRecursion) {
  auto a = analyze(R"(
even(n) if n then odd(decr(n)) else 1
odd(n) if n then even(decr(n)) else 0
main() even(4)
)");
  ASSERT_TRUE(a->result.ok);
  EXPECT_TRUE(a->result.is_recursive("even"));
  EXPECT_TRUE(a->result.is_recursive("odd"));
  EXPECT_FALSE(a->result.is_recursive("main"));
}

TEST(Sema, CallGraphRecorded) {
  auto a = analyze("g() 1\nf() g()\nmain() f()");
  ASSERT_TRUE(a->result.ok);
  EXPECT_TRUE(a->result.callgraph.at("main").count("f"));
  EXPECT_TRUE(a->result.callgraph.at("f").count("g"));
}

TEST(Sema, OperatorUsesCounted) {
  auto a = analyze("main() add(incr(1), incr(2))");
  ASSERT_TRUE(a->result.ok);
  EXPECT_EQ(a->result.operator_uses.at("incr"), 2);
  EXPECT_EQ(a->result.operator_uses.at("add"), 1);
}

TEST(Sema, LocalFunctionSeesItself) {
  auto a = analyze("main() let f(n) if n then f(decr(n)) else 0 in f(3)");
  EXPECT_TRUE(a->result.ok) << a->summary;
}

TEST(Sema, TarjanHandlesLongChains) {
  // A deep acyclic chain must not be marked recursive.
  std::string source;
  for (int i = 0; i < 200; ++i) {
    source.append("f").append(std::to_string(i)).append("() f");
    source.append(std::to_string(i + 1)).append("()\n");
  }
  source += "f200() 1\nmain() f0()\n";
  auto a = analyze(source);
  ASSERT_TRUE(a->result.ok);
  EXPECT_TRUE(a->result.recursive_functions.empty());
}

TEST(Sema, TarjanHandlesLargeCycle) {
  std::string source;
  for (int i = 0; i < 50; ++i) {
    source.append("f").append(std::to_string(i)).append("() f");
    source.append(std::to_string((i + 1) % 50)).append("()\n");
  }
  source += "main() f0()\n";
  auto a = analyze(source);
  ASSERT_TRUE(a->result.ok);
  EXPECT_EQ(a->result.recursive_functions.size(), 50u);
}

}  // namespace
}  // namespace delirium
