// Error-propagation equivalence: a faulting program must report the
// *same* error — byte-identical text, same counters — under the threaded
// runtime with either scheduler at any worker count, and under the
// virtual-time simulator. The fault report is a function of the
// coordination graph (structural sequence ids, drain-time min-seq
// selection), never of the schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/sim.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ScopedEnv;

TEST(FaultEquivalence, IdenticalReportAcrossSchedulersWorkerCountsAndSim) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  reg->add("boom_a", 1, [](OpContext&) -> Value { throw RuntimeError("alpha failure"); })
      .pure();
  reg->add("boom_b", 1, [](OpContext&) -> Value { throw RuntimeError("beta failure"); })
      .pure();
  // Two *independently* faulting operators, one behind a call, so the
  // winning fault carries a non-trivial coordination stack. Unoptimized
  // keeps `inner` out of line.
  testing::ExecutorFixture fixture(*reg);
  fixture.compile_options().optimize = false;
  // The fixture asserts the byte-identical report and fault count across
  // {1, 2, 8} threaded workers and the simulator at 1/4 procs.
  const testing::ExecutorOutcome ref = fixture.expect_equivalent(R"(
    inner(x) boom_a(x)
    main() add(inner(1), boom_b(2))
  )");
  ASSERT_TRUE(ref.faulted()) << "expected FaultError";
  EXPECT_THROW(ref.value_or_rethrow(), FaultError);
  EXPECT_EQ(ref.stats.faults_raised, 2u)
      << "both faults must be captured, not just the first";
  EXPECT_NE(ref.error_text.find("coordination stack:"), std::string::npos)
      << ref.error_text;
}

TEST(FaultEquivalence, ConcurrentFaultsReportDeterministically) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  // Both operators rendezvous before throwing, so with >1 worker the two
  // faults are genuinely concurrent — a first-observed-wins race would
  // report a different winner from rep to rep.
  auto arrived = std::make_shared<std::atomic<int>>(0);
  auto reg = testing::builtin_registry();
  reg->add("gated_boom", 1, [arrived](OpContext& ctx) -> Value {
       arrived->fetch_add(1);
       const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
       while (arrived->load() < 2 && std::chrono::steady_clock::now() < deadline) {
         std::this_thread::yield();
       }
       throw RuntimeError("gated fault " + std::to_string(ctx.arg_int(0)));
     })
      .pure();
  CompiledProgram program =
      compile_or_throw("main() add(gated_boom(0), gated_boom(1))", *reg);

  std::string expected;
  for (int workers : {2, 8}) {
    RuntimeConfig config;
    config.num_workers = workers;
    Runtime runtime(*reg, config);
    for (int rep = 0; rep < 4; ++rep) {
      arrived->store(0);
      try {
        runtime.run(program);
        ADD_FAILURE() << "expected FaultError";
      } catch (const FaultError& e) {
        if (expected.empty()) {
          expected = e.what();
        } else {
          EXPECT_EQ(std::string(e.what()), expected)
              << "workers=" << workers << " rep=" << rep;
        }
      }
      EXPECT_EQ(runtime.last_stats().faults_raised, 2u);
    }
  }
}

TEST(FaultEquivalence, InjectionWithRetriesMatchesFaultFreeValues) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  // Recursive, so call arguments are not compile-time constants and the
  // builtin fold callbacks cannot erase the injection sites.
  const std::string source =
      "f(n) if less_than(n, 2) then n else add(f(sub(n, 1)), f(sub(n, 2)))\n"
      "main() f(12)";

  auto clean_reg = testing::builtin_registry();
  CompiledProgram clean_program = compile_or_throw(source, *clean_reg);
  SimRuntime clean_sim(*clean_reg, {});
  const Value expected = clean_sim.run(clean_program).result;

  auto fault_reg = testing::builtin_registry();
  fault_reg->set_fault_plan(std::make_shared<const FaultPlan>(
      FaultPlan::parse("*:throw:every=3:seed=9:fail_attempts=1")));

  // The every= selector hashes (seed, activation seq, node): structural,
  // so the set of injected invocations — and hence the injection/retry
  // counters and kRetry trace events the fixture compares — is identical
  // across executors, schedulers, and worker counts.
  testing::ExecutorFixture fixture(*fault_reg);
  fixture.config().max_retries = 2;
  const testing::ExecutorOutcome ref = fixture.expect_equivalent(source);
  ASSERT_FALSE(ref.faulted()) << ref.error_text;
  EXPECT_TRUE(deep_equal(ref.value, expected));
  EXPECT_GT(ref.stats.faults_injected, 0u) << "plan never fired: selector too narrow";
  EXPECT_EQ(ref.stats.faults_raised, 0u);
  EXPECT_EQ(ref.stats.retries, ref.stats.faults_injected);
}

}  // namespace
}  // namespace delirium
