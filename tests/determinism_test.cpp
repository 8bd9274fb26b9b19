// The central claim of the model (§8/§9.1): "execution within the model
// is deterministic ... regardless of the number of processors you are
// using and the order of execution." These property tests run generated
// programs and hand-written workloads through the ExecutorFixture
// matrix — the threaded runtime at {1, 2, 8} workers plus the
// virtual-time simulator — asserting identical values, counters, and
// deterministic trace multisets everywhere.
#include <gtest/gtest.h>

#include "src/apps/dcc/program_gen.h"
#include "src/delirium.h"
#include "src/runtime/sim.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

class GeneratedDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedDeterminism, SameValueAcrossAllExecutorsAndRuns) {
  dcc::GenParams params;
  params.num_functions = 18;
  params.body_size = 30;
  params.seed = GetParam();
  const std::string source = dcc::generate_program(params);

  testing::ExecutorFixture fixture;
  const testing::ExecutorOutcome ref = fixture.expect_equivalent(source);
  ASSERT_FALSE(ref.faulted()) << ref.error_text;

  // Repeated runs on one runtime agree with the matrix too.
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(source, *reg);
  Runtime runtime(*reg, {.num_workers = 3});
  for (int run = 0; run < 3; ++run) {
    EXPECT_TRUE(deep_equal(runtime.run(program), ref.value))
        << "seed " << GetParam() << " run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedDeterminism,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107, 108));

TEST(Determinism, IndependentOfSchedulerPolicy) {
  // FIFO vs priorities and every affinity mode must agree on values —
  // across the whole executor matrix, not just one runtime.
  const std::string source = R"(
fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))
main() fib(14)
)";
  for (const bool priorities : {true, false}) {
    for (const auto affinity :
         {AffinityMode::kNone, AffinityMode::kOperator, AffinityMode::kData}) {
      testing::ExecutorFixture fixture;
      fixture.config().use_priorities = priorities;
      fixture.config().affinity = affinity;
      const testing::ExecutorOutcome ref = fixture.expect_equivalent(source);
      EXPECT_EQ(ref.value_or_rethrow().as_int(), 377);
    }
  }
}

TEST(Determinism, VirtualTimeMatchesThreadedForAllProcCounts) {
  testing::ExecutorFixture fixture;
  // The default matrix carries sim at 1 and 4 procs; sweep further out.
  fixture.matrix().push_back({testing::ExecutorSpec::Kind::kSim, 2});
  fixture.matrix().push_back({testing::ExecutorSpec::Kind::kSim, 16});
  const testing::ExecutorOutcome ref = fixture.expect_equivalent(R"(
main()
  iterate {
    i = 0, incr(i)
    acc = 0, add(acc, mul(i, i))
  } while less_than(i, 50), result acc
)");
  EXPECT_EQ(ref.value_or_rethrow().as_int(), 40425);
}

TEST(Determinism, NumaAndAffinityNeverChangeValues) {
  const std::string source = R"(
f(n) if less_than(n, 2) then 1 else mul(n, f(decr(n)))
main() f(12)
)";
  testing::ExecutorFixture plain;
  const int64_t expected = plain.expect_equivalent(source).value_or_rethrow().as_int();
  testing::ExecutorFixture numa;
  numa.config().topology = MemoryTopology::flat(5000);
  numa.config().affinity = AffinityMode::kData;
  EXPECT_EQ(numa.expect_equivalent(source).value_or_rethrow().as_int(), expected);
}

TEST(Determinism, ErrorsAreDeterministicToo) {
  // §8: "If there is a bug in the program it will recur in exactly the
  // same way every execution." The fixture asserts the byte-identical
  // report across every executor; this test checks the content.
  testing::ExecutorFixture fixture;
  const testing::ExecutorOutcome ref = fixture.expect_equivalent(R"(
main()
  iterate {
    i = 0, incr(i)
    acc = 1, div(acc, sub(3, i))
  } while less_than(i, 10), result acc
)");
  ASSERT_TRUE(ref.faulted()) << "expected division by zero";
  EXPECT_THROW(ref.value_or_rethrow(), RuntimeError);
  EXPECT_NE(ref.error_text.find("division by zero"), std::string::npos);
}

}  // namespace
}  // namespace delirium
