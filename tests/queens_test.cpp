// N-queens app tests: the §3 program generalized to N, checked against
// the sequential backtracker and known solution counts.
#include <gtest/gtest.h>

#include "src/apps/queens/queens.h"
#include "src/delirium.h"
#include "src/runtime/sim.h"

namespace delirium::queens {
namespace {

// Known values: number of N-queens solutions for N = 1..10.
constexpr int64_t kKnown[] = {1, 0, 0, 2, 10, 4, 40, 92, 352, 724};

TEST(QueensSequential, MatchesKnownCounts) {
  for (int n = 1; n <= 9; ++n) {
    EXPECT_EQ(count_solutions_sequential(n), kKnown[n - 1]) << "n=" << n;
  }
}

TEST(QueensSequential, SolutionsAreValidBoards) {
  for (const Board& b : solve_sequential(6)) {
    ASSERT_EQ(b.size(), 6u);
    Board prefix;
    for (int8_t row : b) {
      prefix.push_back(row);
      EXPECT_TRUE(board_valid(prefix));
    }
  }
}

class QueensDelirium : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QueensDelirium, MatchesSequentialCount) {
  const int n = std::get<0>(GetParam());
  const int workers = std::get<1>(GetParam());
  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_queens_operators(registry, n);
  CompiledProgram program = compile_or_throw(queens_source(n), registry);
  Runtime runtime(registry, {.num_workers = workers});
  EXPECT_EQ(runtime.run(program).as_int(), count_solutions_sequential(n));
}

std::string queens_param_name(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return std::string("N")
      .append(std::to_string(std::get<0>(info.param)))
      .append("Workers")
      .append(std::to_string(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QueensDelirium,
                         ::testing::Combine(::testing::Values(1, 4, 5, 6, 8),
                                            ::testing::Values(1, 4)),
                         queens_param_name);

TEST(QueensDelirium, PriorityQueueBoundsActivations) {
  // §7: the three-level priority scheme frees activations early. With
  // priorities the peak must be well below the count without them.
  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_queens_operators(registry, 7);
  CompiledProgram program = compile_or_throw(queens_source(7), registry);

  SimConfig with_config{.num_procs = 4};
  with_config.use_priorities = true;
  SimConfig without_config{.num_procs = 4};
  without_config.use_priorities = false;
  SimRuntime with(registry, with_config);
  SimRuntime without(registry, without_config);
  const SimResult a = with.run(program);
  const SimResult b = without.run(program);
  EXPECT_EQ(a.result.as_int(), b.result.as_int());  // values identical
  EXPECT_LT(a.stats.peak_live_activations, b.stats.peak_live_activations);
}

TEST(QueensDelirium, VirtualAndThreadedRuntimesAgree) {
  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_queens_operators(registry, 6);
  CompiledProgram program = compile_or_throw(queens_source(6), registry);
  Runtime threaded(registry, {.num_workers = 3});
  SimRuntime virtual_time(registry, {.num_procs = 3});
  EXPECT_EQ(threaded.run(program).as_int(), virtual_time.run(program).result.as_int());
}

}  // namespace
}  // namespace delirium::queens
