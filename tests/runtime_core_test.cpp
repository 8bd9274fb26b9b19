// End-to-end tests of the core language constructs: atomic values,
// multiple values, let bindings, conditionals, and application. Every
// evaluation runs through the ExecutorFixture matrix (threaded × {1, 2,
// 8} workers + the virtual-time simulator), so each
// core construct is checked for cross-executor equivalence too.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace delirium {
namespace {

Value eval(const std::string& source) { return testing::eval_everywhere(source); }
int64_t eval_int(const std::string& source) { return testing::eval_int_everywhere(source); }

TEST(RuntimeCore, ReturnsIntegerLiteral) {
  EXPECT_EQ(eval_int("main() 42"), 42);
}

TEST(RuntimeCore, ReturnsNegativeInteger) {
  EXPECT_EQ(eval_int("main() -17"), -17);
}

TEST(RuntimeCore, ReturnsFloatLiteral) {
  EXPECT_DOUBLE_EQ(eval("main() 2.5").as_float(), 2.5);
}

TEST(RuntimeCore, ReturnsStringLiteral) {
  EXPECT_EQ(eval("main() \"hello\"").as_string(), "hello");
}

TEST(RuntimeCore, ReturnsNull) {
  EXPECT_TRUE(eval("main() NULL").is_null());
}

TEST(RuntimeCore, AppliesBuiltinOperator) {
  EXPECT_EQ(eval_int("main() add(40, 2)"), 42);
}

TEST(RuntimeCore, NestedApplication) {
  EXPECT_EQ(eval_int("main() mul(add(1, 2), sub(10, 3))"), 21);
}

TEST(RuntimeCore, LetBindingSingleValue) {
  EXPECT_EQ(eval_int("main() let x = 5 in add(x, x)"), 10);
}

TEST(RuntimeCore, LetBindingsAreSequential) {
  EXPECT_EQ(eval_int(R"(
    main()
      let a = 3
          b = add(a, 4)
          c = mul(a, b)
      in c
  )"),
            21);
}

TEST(RuntimeCore, LetShadowingInNestedScopes) {
  EXPECT_EQ(eval_int(R"(
    main()
      let x = 1
      in let x = add(x, 10)
         in x
  )"),
            11);
}

TEST(RuntimeCore, TupleConstructionAndDecomposition) {
  EXPECT_EQ(eval_int(R"(
    main()
      let t = <1, 2, 3>
          <a, b, c> = t
      in add(a, add(b, c))
  )"),
            6);
}

TEST(RuntimeCore, OperatorReturningTuple) {
  // An operator returning a multiple-value package, decomposed by the
  // coordination code (the paper's target_split pattern).
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("split3", 1, [](OpContext& ctx) {
    const int64_t v = ctx.arg_int(0);
    return Value::tuple({Value::of(v), Value::of(v * 10), Value::of(v * 100)});
  }).pure();
  testing::ExecutorFixture fixture(reg);
  const testing::ExecutorOutcome out = fixture.expect_equivalent(R"(
    main()
      let <a, b, c> = split3(7)
      in add(a, add(b, c))
  )");
  EXPECT_EQ(out.value_or_rethrow().as_int(), 777);
}

TEST(RuntimeCore, ConditionalTrueBranch) {
  EXPECT_EQ(eval_int("main() if 1 then 10 else 20"), 10);
}

TEST(RuntimeCore, ConditionalFalseBranch) {
  EXPECT_EQ(eval_int("main() if 0 then 10 else 20"), 20);
}

TEST(RuntimeCore, NullIsFalsy) {
  EXPECT_EQ(eval_int("main() if NULL then 1 else 2"), 2);
}

TEST(RuntimeCore, ConditionalWithComputedCondition) {
  EXPECT_EQ(eval_int("main() if less_than(3, 5) then 1 else 0"), 1);
}

TEST(RuntimeCore, ConditionalBranchesSeeEnclosingBindings) {
  EXPECT_EQ(eval_int(R"(
    main()
      let x = 6
          y = 7
      in if greater_than(x, y) then x else y
  )"),
            7);
}

TEST(RuntimeCore, UntakenBranchIsNotExecuted) {
  // The untaken arm contains a division by zero; because branches expand
  // lazily through closures, it must never run.
  EXPECT_EQ(eval_int("main() if 1 then 5 else div(1, 0)"), 5);
}

TEST(RuntimeCore, CallsUserFunction) {
  EXPECT_EQ(eval_int(R"(
    double(x) add(x, x)
    main() double(21)
  )"),
            42);
}

TEST(RuntimeCore, FunctionCallsAreIndependent) {
  EXPECT_EQ(eval_int(R"(
    square(x) mul(x, x)
    main() add(square(3), square(4))
  )"),
            25);
}

TEST(RuntimeCore, ForkJoinFromSection2) {
  // The fork/join example of §2.1, with convolve standing in as an
  // operator. All four convolve calls may run in parallel; term_fn joins.
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("init_fn", 0, [](OpContext&) { return Value::of(int64_t{100}); }).pure();
  reg.add("convolve", 2, [](OpContext& ctx) {
    return Value::of(ctx.arg_int(0) + ctx.arg_int(1));
  }).pure();
  reg.add("term_fn", 4, [](OpContext& ctx) {
    return Value::of(ctx.arg_int(0) + ctx.arg_int(1) + ctx.arg_int(2) + ctx.arg_int(3));
  }).pure();
  testing::ExecutorFixture fixture(reg);
  const testing::ExecutorOutcome out = fixture.expect_equivalent(R"(
    main()
      let a_start = init_fn()
          a = convolve(a_start, 0)
          b = convolve(a_start, 1)
          c = convolve(a_start, 2)
          d = convolve(a_start, 3)
      in term_fn(a, b, c, d)
  )");
  EXPECT_EQ(out.value_or_rethrow().as_int(), 406);
}

TEST(RuntimeCore, RunFunctionByName) {
  auto reg = testing::builtin_registry();
  // Optimization off: otherwise helper is inlined into main and removed
  // as dead, so it would not be callable by name.
  CompileOptions copts;
  copts.optimize = false;
  CompiledProgram program = compile_or_throw(R"(
    helper(x, y) mul(x, y)
    main() helper(6, 7)
  )",
                                             *reg, copts);
  Runtime runtime(*reg, {.num_workers = 2});
  EXPECT_EQ(runtime.run(program).as_int(), 42);
  EXPECT_EQ(runtime
                .run_function(program, "helper", {Value::of(int64_t{3}), Value::of(int64_t{5})})
                .as_int(),
            15);
}

TEST(RuntimeCore, StringOperations) {
  EXPECT_EQ(eval("main() concat(\"ab\", \"cd\")").as_string(), "abcd");
  EXPECT_EQ(eval_int("main() str_len(\"hello\")"), 5);
}

TEST(RuntimeCore, DeterministicErrorOnDivisionByZero) {
  EXPECT_THROW(eval("main() div(1, 0)"), RuntimeError);
}

TEST(RuntimeCore, OperatorExceptionPropagatesToCaller) {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  reg.add("boom", 0, [](OpContext&) -> Value { throw RuntimeError("boom happened"); });
  testing::ExecutorFixture fixture(reg);
  try {
    // The fixture checks the report is byte-identical everywhere; the
    // rethrown reference error carries the structured fault.
    fixture.expect_equivalent("main() boom()").value_or_rethrow();
    FAIL() << "expected RuntimeError";
  } catch (const FaultError& e) {
    // The original message survives, wrapped in deterministic provenance
    // (operator, template, node, coordination stack).
    EXPECT_NE(std::string(e.what()).find("boom happened"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("operator 'boom' faulted"), std::string::npos);
    EXPECT_EQ(e.fault().op, "boom");
    EXPECT_EQ(e.fault().tmpl, "main");
    EXPECT_EQ(e.fault().message, "boom happened");
  }
}

TEST(RuntimeCore, RuntimeIsReusableAcrossRuns) {
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw("main() add(1, 2)", *reg);
  Runtime runtime(*reg, {.num_workers = 3});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(runtime.run(program).as_int(), 3);
  }
}

}  // namespace
}  // namespace delirium
