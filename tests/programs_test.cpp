// File-driven tests: every .dlr program under examples/programs must
// compile against the built-in operators alone and produce its golden
// result, at several worker counts and under virtual time. Also fuzz
// robustness: mutated sources must produce diagnostics, never crashes.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/delirium.h"
#include "src/lang/pretty.h"
#include "src/runtime/sim.h"
#include "src/support/rng.h"

#ifndef DELIRIUM_PROGRAMS_DIR
#define DELIRIUM_PROGRAMS_DIR "examples/programs"
#endif

namespace delirium {
namespace {

OperatorRegistry& registry() {
  static OperatorRegistry r = [] {
    OperatorRegistry reg;
    register_builtin_operators(reg);
    return reg;
  }();
  return r;
}

std::string read_program(const std::string& name) {
  const std::string path = std::string(DELIRIUM_PROGRAMS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Golden {
  const char* file;
  double expected;
  double tolerance;  // 0 = exact integer
};

// Without this, gtest prints a Golden as its raw bytes, which include the
// `file` pointer: test names listed for ctest would change with every
// address-space layout.
void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.file; }

class DlrPrograms : public ::testing::TestWithParam<Golden> {};

TEST_P(DlrPrograms, ComputesGoldenResultEverywhere) {
  const Golden golden = GetParam();
  const std::string source = read_program(golden.file);
  CompiledProgram program = compile_or_throw(source, registry());

  auto check = [&](const Value& v, const std::string& where) {
    if (golden.tolerance == 0) {
      EXPECT_EQ(v.as_int(), static_cast<int64_t>(golden.expected)) << where;
    } else {
      EXPECT_NEAR(v.as_float(), golden.expected, golden.tolerance) << where;
    }
  };
  for (int workers : {1, 4}) {
    Runtime runtime(registry(), {.num_workers = workers});
    check(runtime.run(program), std::string(golden.file) + " workers=" +
                                    std::to_string(workers));
  }
  SimRuntime sim(registry(), {.num_procs = 3});
  check(sim.run(program).result, std::string(golden.file) + " (virtual)");
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DlrPrograms,
    ::testing::Values(Golden{"fib.dlr", 2584, 0},          // fib(18)
                      Golden{"queens.dlr", 4, 0},          // 6-queens
                      Golden{"pi.dlr", 3.14159265, 1e-6},  // integration
                      Golden{"loops.dlr", 42925, 0},       // sum i^2, 1..50
                      Golden{"mergesort.dlr", 336115745227.0, 0},
                      Golden{"primes.dlr", 46, 0}),  // primes below 200
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.file;
      return name.substr(0, name.find('.'));
    });

TEST(DlrPrograms, UnoptimizedAgrees) {
  for (const char* file : {"fib.dlr", "queens.dlr", "loops.dlr"}) {
    const std::string source = read_program(file);
    CompileOptions no_opt;
    no_opt.optimize = false;
    CompiledProgram plain = compile_or_throw(source, registry(), no_opt);
    CompiledProgram optimized = compile_or_throw(source, registry());
    Runtime runtime(registry(), {.num_workers = 2});
    EXPECT_TRUE(deep_equal(runtime.run(plain), runtime.run(optimized))) << file;
  }
}

TEST(DlrPrograms, PrettyPrintedFormsRecompileAndAgree) {
  // End-to-end round trip through *text*: parse, pretty-print, recompile
  // the printed form, and run both — a stronger property than structural
  // AST equality.
  for (const char* file : {"fib.dlr", "queens.dlr", "loops.dlr", "mergesort.dlr"}) {
    const std::string source = read_program(file);
    SourceFile sf("<orig>", source);
    DiagnosticEngine diags;
    AstContext ctx;
    Program parsed = parse_source(sf, ctx, diags);
    ASSERT_FALSE(diags.has_errors()) << file;
    const std::string printed = program_to_string(parsed);

    CompiledProgram original = compile_or_throw(source, registry());
    CompiledProgram reprinted = compile_or_throw(printed, registry());
    Runtime runtime(registry(), {.num_workers = 2});
    EXPECT_TRUE(deep_equal(runtime.run(original), runtime.run(reprinted)))
        << file << " diverged after pretty-printing:\n" << printed;
  }
}

// --- fuzz robustness ---------------------------------------------------------

TEST(FrontendFuzz, MutatedSourcesNeverCrashTheCompiler) {
  const std::string base = read_program("queens.dlr");
  SplitMix64 rng(2026);
  int compiled = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0: mutated[pos] = static_cast<char>(rng.next_range(32, 126)); break;
        case 1: mutated.erase(pos, 1 + rng.next_below(5)); break;
        default:
          mutated.insert(pos, std::string(1 + rng.next_below(3),
                                          static_cast<char>(rng.next_range(32, 126))));
          break;
      }
    }
    // Must not crash or hang; may succeed or report diagnostics.
    CompileResult result = compile_source("<fuzz>", mutated, registry());
    if (result.ok) {
      ++compiled;
      EXPECT_EQ(validate_graph(result.program), "") << "trial " << trial;
    } else {
      ++rejected;
      EXPECT_FALSE(result.diagnostics.empty()) << "trial " << trial;
    }
  }
  // Sanity: the fuzz actually exercised both outcomes.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(compiled + rejected, 0);
}

TEST(FrontendFuzz, RandomGarbageIsRejectedGracefully) {
  SplitMix64 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage;
    const size_t len = 1 + rng.next_below(400);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.next_range(9, 126)));
    }
    CompileResult result = compile_source("<garbage>", garbage, registry());
    if (result.ok) {
      EXPECT_EQ(validate_graph(result.program), "");
    }
  }
}

}  // namespace
}  // namespace delirium
