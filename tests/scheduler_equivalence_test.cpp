// Scheduler equivalence: the work-stealing runtime must compute exactly
// what the virtual-time simulator computes, at every worker count.
// Determinism in Delirium is about *values*, not schedules — so every
// example program and stress workload runs through the ExecutorFixture
// matrix (threaded × {1, 2, 8} workers, plus the simulator at 1/4
// procs) × all three affinity modes, asserting identical results,
// identical graph-determined counters, and equal deterministic trace
// multisets (all functions of the coordination graph alone, not of the
// schedule).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/delirium.h"
#include "tests/test_util.h"

#ifndef DELIRIUM_PROGRAMS_DIR
#define DELIRIUM_PROGRAMS_DIR "examples/programs"
#endif

namespace delirium {
namespace {

std::string read_program(const std::string& name) {
  const std::string path = std::string(DELIRIUM_PROGRAMS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Stress-shaped workloads from runtime_stress_test, as sources that
/// need only the builtin registry.
std::string wide_fanout_source() {
  std::string source = "leaf(x) incr(x)\nmain()\n  let\n";
  for (int i = 0; i < 128; ++i) {
    source += "    x" + std::to_string(i) + " = leaf(" + std::to_string(i) + ")\n";
  }
  source += "  in ";
  std::string sum = "x0";
  for (int i = 1; i < 128; ++i) sum = "add(" + sum + ", x" + std::to_string(i) + ")";
  return source + sum + "\n";
}

struct Workload {
  const char* name;
  std::string source;
};

std::vector<Workload> workloads() {
  return {
      {"fib.dlr", read_program("fib.dlr")},
      {"queens.dlr", read_program("queens.dlr")},
      {"pi.dlr", read_program("pi.dlr")},
      {"loops.dlr", read_program("loops.dlr")},
      {"mergesort.dlr", read_program("mergesort.dlr")},
      {"primes.dlr", read_program("primes.dlr")},
      {"wide_fanout", wide_fanout_source()},
      {"deep_nontail",
       "depth(n) if is_equal(n, 0) then 0 else incr(depth(decr(n)))\n"
       "main() depth(5000)\n"},
      {"parmap_fanout",
       "work(x) add(mul(x, x), 1)\n"
       "total(p)\n"
       "  iterate {\n"
       "    i = 0, incr(i)\n"
       "    acc = 0, add(acc, package_get(p, i))\n"
       "  } while is_not_equal(i, package_size(p)), result acc\n"
       "main() total(parmap(work, range(200)))\n"},
  };
}

std::string affinity_name(const ::testing::TestParamInfo<AffinityMode>& info) {
  switch (info.param) {
    case AffinityMode::kNone: return "NoAffinity";
    case AffinityMode::kOperator: return "OperatorAffinity";
    case AffinityMode::kData: return "DataAffinity";
  }
  return "Unknown";
}

class SchedulerEquivalence : public ::testing::TestWithParam<AffinityMode> {};

TEST_P(SchedulerEquivalence, AllExecutorsMatchTheOneWorkerReference) {
  // The fixture's reference is the threaded runtime at 1 worker; every
  // other matrix entry — 2 and 8 workers, the simulator at 1/4 procs —
  // must produce the same values, counters, and trace multisets.
  testing::ExecutorFixture fixture;
  fixture.config().affinity = GetParam();
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    fixture.expect_equivalent(w.source);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, SchedulerEquivalence,
                         ::testing::Values(AffinityMode::kNone, AffinityMode::kOperator,
                                           AffinityMode::kData),
                         affinity_name);

TEST(SchedulerStats, WorkStealingCountersAreCoherent) {
  auto reg = testing::builtin_registry();
  CompiledProgram program =
      compile_or_throw("work(x) add(mul(x, x), 1)\n"
                       "total(p)\n"
                       "  iterate {\n"
                       "    i = 0, incr(i)\n"
                       "    acc = 0, add(acc, package_get(p, i))\n"
                       "  } while is_not_equal(i, package_size(p)), result acc\n"
                       "main() total(parmap(work, range(64)))\n",
                       *reg);
  // Workers stage their enqueues and settle the run's outstanding count
  // once per item, so a counter bumped after an item's last publication
  // could land after the drain (missing from this run) or after the
  // next run's reset (inflating it). Many back-to-back runs on one
  // machine, traced and untraced, would catch either.
  for (const bool tracing : {false, true}) {
    SCOPED_TRACE(tracing ? "traced" : "untraced");
    RuntimeConfig config;
    config.num_workers = 4;
    config.enable_tracing = tracing;
    Runtime runtime(*reg, config);
    RunStats first;
    for (int run = 0; run < 200; ++run) {
      ASSERT_EQ(runtime.run(program).as_int(), 85408);
      const RunStats& s = runtime.last_stats();
      if (run == 0) first = s;
      // Every scheduled node went through exactly one enqueue path.
      ASSERT_EQ(s.sched_local_enqueues + s.sched_injected_enqueues, s.nodes_executed)
          << "run " << run;
      // The graph-determined counters repeat exactly.
      ASSERT_EQ(s.nodes_executed, first.nodes_executed) << "run " << run;
      ASSERT_EQ(s.operator_invocations, first.operator_invocations) << "run " << run;
      ASSERT_EQ(s.activations_created, first.activations_created) << "run " << run;
      // The run begins with an injection from the caller thread.
      ASSERT_GE(s.sched_injected_enqueues, 1u);
    }
  }
}

TEST(SchedulerStats, PeakLiveActivationsIsExactAtOneWorkerAndBoundedAbove) {
  // The one-worker peak follows the schedule, so every knob that moves
  // the graph or the pop order is cleared.
  testing::ScopedEnv env(
      {"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES", "DELIRIUM_COST_HINTS",
       "DELIRIUM_AFFINITY", "DELIRIUM_TOPOLOGY", "DELIRIUM_LOCALITY", "DELIRIUM_GRAPH_FACTS",
       "DELIRIUM_SCHED_HINTS", "DELIRIUM_FACTS_DEADPARAM", "DELIRIUM_FACTS_FOLD",
       "DELIRIUM_FACTS_FUSE", "DELIRIUM_FACTS_SOLE", "DELIRIUM_FACTS_STRAND",
       "DELIRIUM_FACTS_TUPLES"});
  auto reg = testing::builtin_registry();
  const CompiledProgram program = compile_or_throw(
      "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
      "main() fib(20)\n",
      *reg);
  // One worker: the caller's shard holds the root, the worker's shard
  // everything else, so the sum of shard peaks is the true peak — the
  // value a single shared gauge reported (delc --run --workers 1 --stats).
  Runtime one(*reg, RuntimeConfig{.num_workers = 1});
  EXPECT_EQ(one.run(program).as_int(), 6765);
  EXPECT_EQ(one.last_stats().peak_live_activations, 22u);
  // More workers: an upper bound on the true peak, never above the
  // number of activations created.
  Runtime four(*reg, RuntimeConfig{.num_workers = 4});
  EXPECT_EQ(four.run(program).as_int(), 6765);
  const RunStats& s = four.last_stats();
  EXPECT_GE(s.peak_live_activations, 1u);
  EXPECT_LE(s.peak_live_activations, s.activations_created);
}

}  // namespace
}  // namespace delirium
