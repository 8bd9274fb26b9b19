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
  RuntimeConfig config;
  config.num_workers = 4;
  Runtime runtime(*reg, config);
  runtime.run(program);
  const RunStats& s = runtime.last_stats();
  // Every scheduled node went through exactly one enqueue path.
  EXPECT_EQ(s.sched_local_enqueues + s.sched_injected_enqueues, s.nodes_executed);
  // The run begins with an injection from the caller thread.
  EXPECT_GE(s.sched_injected_enqueues, 1u);
}

}  // namespace
}  // namespace delirium
