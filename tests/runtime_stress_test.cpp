// Runtime stress and failure-injection tests: wide fan-out, deep
// non-tail recursion, error propagation under parallelism, registry
// misuse, and block-contention (copy-on-write) semantics under load.
#include <gtest/gtest.h>

#include <atomic>

#include "tests/test_util.h"

namespace delirium {
namespace {

TEST(Stress, WideFanOut) {
  // 256 parallel leaf calls joined by a tree of adds.
  OperatorRegistry reg;
  register_builtin_operators(reg);
  std::string source = "leaf(x) incr(x)\nmain()\n  let\n";
  for (int i = 0; i < 256; ++i) {
    source += "    x" + std::to_string(i) + " = leaf(" + std::to_string(i) + ")\n";
  }
  source += "  in ";
  // Sum via a fold expression: add(add(...)...) nested left.
  std::string sum = "x0";
  for (int i = 1; i < 256; ++i) sum = "add(" + sum + ", x" + std::to_string(i) + ")";
  source += sum + "\n";
  CompileOptions no_opt;
  no_opt.optimize = false;
  CompiledProgram program = compile_or_throw(source, reg, no_opt);
  Runtime runtime(reg, {.num_workers = 4});
  // sum of (i+1) for i in 0..255 = 256*257/2
  EXPECT_EQ(runtime.run(program).as_int(), 256 * 257 / 2);
}

TEST(Stress, DeepNonTailRecursion) {
  // 20k-deep non-tail recursion: activations pile up but complete.
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(R"(
depth(n) if is_equal(n, 0) then 0 else incr(depth(decr(n)))
main() depth(20000)
)",
                                             *reg);
  Runtime runtime(*reg, {.num_workers = 2});
  EXPECT_EQ(runtime.run(program).as_int(), 20000);
  EXPECT_GE(runtime.last_stats().activations_created, 20000u);
}

TEST(Stress, ErrorInOneBranchCancelsCleanly) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  std::atomic<int> executed{0};
  reg.add("slow_ok", 1, [&executed](OpContext& ctx) {
    executed.fetch_add(1);
    return ctx.take(0);
  });
  reg.add("fail_fast", 1, [](OpContext&) -> Value {
    throw RuntimeError("injected failure");
  });
  reg.add("join", 4, [](OpContext& ctx) { return ctx.take(0); });
  CompiledProgram program = compile_or_throw(R"(
main()
  let a = slow_ok(1)
      b = fail_fast(2)
      c = slow_ok(3)
      d = slow_ok(4)
  in join(a, b, c, d)
)",
                                             reg);
  Runtime runtime(reg, {.num_workers = 4});
  EXPECT_THROW(runtime.run(program), RuntimeError);
  // The runtime must remain usable after a failed run.
  CompiledProgram ok = compile_or_throw("main() add(1, 2)", reg);
  EXPECT_EQ(runtime.run(ok).as_int(), 3);
}

TEST(Stress, RepeatedRunsLeakNoActivations) {
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(R"(
fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))
main() fib(12)
)",
                                             *reg);
  Runtime runtime(*reg, {.num_workers = 4});
  uint64_t first_created = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(runtime.run(program).as_int(), 144);
    if (i == 0) {
      first_created = runtime.last_stats().activations_created;
    } else {
      // Per-run counters, not cumulative: constant per run.
      EXPECT_EQ(runtime.last_stats().activations_created, first_created);
    }
  }
}

TEST(Stress, SharedBlockContentionCopiesExactlyWhenNeeded) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("make", 0, [](OpContext&) {
    return Value::block(std::vector<int64_t>{0, 0, 0, 0});
  });
  reg.add("poke", 2, [](OpContext& ctx) {
    auto& v = ctx.arg_block_mut<std::vector<int64_t>>(0);
    v[static_cast<size_t>(ctx.arg_int(1)) % v.size()] += 1;
    return ctx.take(0);
  }).destructive(0);
  reg.add("read_sum", 1, [](OpContext& ctx) {
    int64_t total = 0;
    for (int64_t x : ctx.arg_block<std::vector<int64_t>>(0)) total += x;
    return Value::of(total);
  }).pure();

  // Four pokes of the SAME block in parallel: each must see its own copy
  // (the block is shared), so each result sums to exactly 1.
  CompiledProgram program = compile_or_throw(R"(
main()
  let b = make()
      p0 = read_sum(poke(b, 0))
      p1 = read_sum(poke(b, 1))
      p2 = read_sum(poke(b, 2))
      p3 = read_sum(poke(b, 3))
  in add(add(p0, p1), add(p2, p3))
)",
                                             reg);
  for (int workers : {1, 4}) {
    Runtime runtime(reg, {.num_workers = workers});
    EXPECT_EQ(runtime.run(program).as_int(), 4) << workers;
    // At least 3 copies: one poke may win the sole original.
    EXPECT_GE(runtime.last_stats().cow_copies, 3u) << workers;
  }
}

TEST(Stress, OperatorRegisteredAfterRuntimeConstructionRunsWithoutAffinity) {
  // Regression: op_last_worker_ is sized from the registry at Runtime
  // construction. An operator registered afterwards used to index past
  // the end of that table under kOperator affinity; it must instead
  // fall back to "no preference" and still compute correctly.
  OperatorRegistry reg;
  register_builtin_operators(reg);
  RuntimeConfig config;
  config.num_workers = 2;
  config.affinity = AffinityMode::kOperator;
  Runtime runtime(reg, config);  // affinity table sized here
  reg.add("late", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0) * 3); }).pure();
  CompiledProgram program = compile_or_throw("main() late(add(late(5), 2))", reg);
  EXPECT_EQ(runtime.run(program).as_int(), 51);
}

TEST(Registry, RejectsDuplicateOperators) {
  OperatorRegistry reg;
  reg.add("dup", 0, [](OpContext&) { return Value::null(); });
  EXPECT_THROW(reg.add("dup", 1, [](OpContext&) { return Value::null(); }),
               std::invalid_argument);
}

TEST(Registry, UndeclaredDestructiveAccessIsRejected) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("sneaky", 1, [](OpContext& ctx) -> Value {
    // Did not declare .destructive(0): must throw.
    ctx.arg_block_mut<std::vector<int>>(0)[0] = 1;
    return ctx.take(0);
  });
  reg.add("mk", 0, [](OpContext&) { return Value::block(std::vector<int>{0}); });
  CompiledProgram program = compile_or_throw("main() sneaky(mk())", reg);
  Runtime runtime(reg, {.num_workers = 1});
  try {
    runtime.run(program);
    FAIL();
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("did not declare destructive"), std::string::npos);
  }
}

TEST(Registry, ArgumentIndexOutOfRange) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("overreach", 1, [](OpContext& ctx) { return ctx.take(5); });
  CompiledProgram program = compile_or_throw("main() overreach(1)", reg);
  Runtime runtime(reg, {.num_workers = 1});
  EXPECT_THROW(runtime.run(program), RuntimeError);
}

TEST(Stress, ManyWorkersOnTinyProgram) {
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw("main() 1", *reg);
  Runtime runtime(*reg, {.num_workers = 16});
  for (int i = 0; i < 50; ++i) EXPECT_EQ(runtime.run(program).as_int(), 1);
}

TEST(Stress, DecomposeArityMismatchIsRuntimeError) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("pair", 0, [](OpContext&) {
    return Value::tuple({Value::of(int64_t{1}), Value::of(int64_t{2})});
  }).pure();
  // Optimization off: the optimizer would (legally) delete the unused
  // extractions, erasing the error with them.
  CompileOptions no_opt;
  no_opt.optimize = false;
  CompiledProgram program =
      compile_or_throw("main() let <a, b, c> = pair() in a", reg, no_opt);
  Runtime runtime(reg, {.num_workers = 2});
  try {
    runtime.run(program);
    FAIL();
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("element 2"), std::string::npos);
  }
}

TEST(Stress, DecomposingANonPackageIsRuntimeError) {
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw("main() let <a, b> = 5 in a", *reg);
  Runtime runtime(*reg, {.num_workers = 1});
  EXPECT_THROW(runtime.run(program), RuntimeError);
}

}  // namespace
}  // namespace delirium
