// Multi-instance isolation (docs/ROBUSTNESS.md "Isolation model"): many
// concurrent program instances over one shared machine, with fault
// containment, per-instance budgets, deterministic admission shedding,
// and machine reuse after cancellation — on both executors.
//
// The central contracts exercised here:
//  - a faulting instance reports the byte-identical error its solo run
//    reports, and siblings complete unperturbed;
//  - budget and shed outcomes are structured results with deterministic
//    text, identical across schedulers, worker counts, and executors;
//  - shed decisions are a pure function of the caller's submit()/wait()
//    sequence, independent of worker timing.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/instance.h"
#include "src/runtime/sim.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ScopedEnv;

std::shared_ptr<const FaultPlan> plan_of(const std::string& spec) {
  return std::make_shared<const FaultPlan>(FaultPlan::parse(spec));
}

// `main` must be nullary, so the parameterized traffic enters through
// named functions and InstanceRequest::function.
constexpr const char* kFibSource =
    "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    "main() fib(10)";

int64_t fib(int64_t n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }

/// Compile with the optimizer off: the tiny single-call helper
/// functions the instance requests name would otherwise be inlined into
/// main() and their templates dropped.
CompiledProgram compile_noopt(const std::string& source, const OperatorRegistry& reg) {
  CompileOptions copts;
  copts.optimize = false;
  return compile_or_throw(source, reg, copts);
}

InstanceRequest req_of(const CompiledProgram& program, std::string function,
                       std::vector<Value> args = {}, InstanceBudget budget = {}) {
  InstanceRequest r;
  r.program = &program;
  r.function = std::move(function);
  r.args = std::move(args);
  r.budget = budget;
  return r;
}

InstanceRequest fib_req(const CompiledProgram& program, int64_t n,
                        InstanceBudget budget = {}) {
  return req_of(program, "fib", {Value::of(n)}, budget);
}

std::string activation_budget_message(uint64_t max_activations, uint64_t id,
                                      const std::string& function) {
  return "instance budget: activation count exceeded " + std::to_string(max_activations) +
         " (instance " + std::to_string(id) + ": '" + function +
         "'); cancelling instance";
}

std::string shed_message(size_t capacity, uint64_t id) {
  return "admission control: capacity " + std::to_string(capacity) + " reached; instance " +
         std::to_string(id) + " shed";
}

/// The threaded worker counts the isolation contracts are swept across
/// (the virtual-time legs construct SimRuntime directly).
constexpr int kThreadedWorkers[] = {1, 2, 8};

std::string spec_name(int workers) { return "threaded" + std::to_string(workers); }

// ---------------------------------------------------------------------------
// Basics: healthy instances complete with correct values and counters
// ---------------------------------------------------------------------------

TEST(InstanceBasics, ThreadedInstancesCompleteWithCorrectValues) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(kFibSource, *reg);
  Runtime runtime(*reg, {.num_workers = 4});
  {
    InstanceManager mgr(runtime);
    for (const int64_t n : {8, 9, 10, 11}) mgr.submit(fib_req(program, n));
    const std::vector<InstanceResult> results = mgr.wait_all();
    ASSERT_EQ(results.size(), 4u);
    const int64_t args[] = {8, 9, 10, 11};
    for (size_t i = 0; i < results.size(); ++i) {
      const InstanceResult& r = results[i];
      EXPECT_EQ(r.id, i + 1);
      ASSERT_EQ(r.outcome, InstanceOutcome::kCompleted) << r.error;
      EXPECT_EQ(r.value.as_int(), fib(args[i]));
      EXPECT_GT(r.activations, 0u);
      EXPECT_GE(r.latency_ns, 0);
    }
    const InstanceCounters c = mgr.counters();
    EXPECT_EQ(c.admitted, 4u);
    EXPECT_EQ(c.completed, 4u);
    EXPECT_EQ(c.faulted, 0u);
    EXPECT_EQ(c.budget_killed, 0u);
    EXPECT_EQ(c.shed, 0u);
    EXPECT_EQ(c.live, 0u);
    EXPECT_EQ(mgr.latencies().size(), 4u);
    const RunStats s = mgr.stats();
    EXPECT_EQ(s.instances_admitted, 4u);
    EXPECT_EQ(s.instances_completed, 4u);
    EXPECT_EQ(s.instances_shed, 0u);
    EXPECT_GT(s.activations_created, 0u);
  }
  // The session published its stats through the usual accessor.
  EXPECT_EQ(runtime.last_stats().instances_completed, 4u);
}

TEST(InstanceBasics, SimBatchCompletesDeterministically) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(kFibSource, *reg);
  // Round 0 records measured operator costs; round 1 replays them, and
  // with replayed costs the virtual schedule — and so every per-instance
  // latency — reproduces exactly.
  CostTable costs;
  std::vector<int64_t> first_latencies;
  for (int round = 0; round < 2; ++round) {
    SimConfig config;
    if (round == 0) {
      config.record_costs = &costs;
    } else {
      config.replay_costs = &costs;
    }
    SimRuntime sim(*reg, config);
    InstanceManager mgr(sim);
    for (const int64_t n : {6, 9, 12}) mgr.submit(fib_req(program, n));
    const std::vector<InstanceResult> results = mgr.wait_all();
    ASSERT_EQ(results.size(), 3u);
    const int64_t args[] = {6, 9, 12};
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].outcome, InstanceOutcome::kCompleted) << results[i].error;
      EXPECT_EQ(results[i].value.as_int(), fib(args[i]));
    }
    std::vector<int64_t> lats = mgr.latencies();
    ASSERT_EQ(lats.size(), 3u);
    if (round == 0) {
      first_latencies = lats;
    } else {
      EXPECT_EQ(lats, first_latencies);
    }
    const InstanceCounters c = mgr.counters();
    EXPECT_EQ(c.admitted, 3u);
    EXPECT_EQ(c.completed, 3u);
    EXPECT_EQ(c.live, 0u);
  }
}

TEST(InstanceBasics, OutcomeNamesAndBadWaitId) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  EXPECT_STREQ(instance_outcome_name(InstanceOutcome::kCompleted), "completed");
  EXPECT_STREQ(instance_outcome_name(InstanceOutcome::kFaulted), "faulted");
  EXPECT_STREQ(instance_outcome_name(InstanceOutcome::kBudgetExhausted),
               "budget_exhausted");
  EXPECT_STREQ(instance_outcome_name(InstanceOutcome::kOverload), "overload");

  auto reg = testing::builtin_registry();
  SimRuntime sim(*reg, {});
  InstanceManager mgr(sim);
  EXPECT_THROW(mgr.wait(1), RuntimeError);
  EXPECT_THROW(mgr.wait(0), RuntimeError);
}

// ---------------------------------------------------------------------------
// Fault containment: byte-identical to solo, siblings unperturbed
// ---------------------------------------------------------------------------

/// Registry whose `boomif` throws for input 13 and passes anything else
/// through. Structural (value-driven) faulting, so every executor and
/// every schedule faults in exactly the same graph position.
std::shared_ptr<OperatorRegistry> boomif_registry() {
  auto reg = testing::builtin_registry();
  reg->add("boomif", 1, [](OpContext& ctx) -> Value {
       const int64_t v = ctx.arg_int(0);
       if (v == 13) throw RuntimeError("boomif: unlucky 13");
       return Value::of(v);
     })
      .pure();
  return reg;
}

TEST(InstanceIsolation, FaultIsContainedAndByteIdenticalToSolo) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = boomif_registry();
  CompiledProgram program =
      compile_noopt("probe(n) add(boomif(n), 1)\nmain() probe(1)", *reg);

  // The reference report: what a solo run of the faulting input says.
  std::string solo_error;
  {
    Runtime solo(*reg, {.num_workers = 2});
    try {
      solo.run_function(program, "probe", {Value::of(int64_t{13})});
      FAIL() << "expected FaultError";
    } catch (const FaultError& e) {
      solo_error = e.what();
    }
  }
  ASSERT_NE(solo_error.find("boomif: unlucky 13"), std::string::npos) << solo_error;
  ASSERT_NE(solo_error.find("coordination stack:"), std::string::npos) << solo_error;

  const int64_t args[] = {5, 13, 7, 13, 9};
  for (const int workers : kThreadedWorkers) {
    RuntimeConfig config;
    config.num_workers = workers;
    Runtime runtime(*reg, config);
    InstanceManager mgr(runtime);
    for (const int64_t n : args) {
      mgr.submit(req_of(program, "probe", {Value::of(n)}));
    }
    const std::vector<InstanceResult> results = mgr.wait_all();
    const std::string where = spec_name(workers);
    for (size_t i = 0; i < results.size(); ++i) {
      const InstanceResult& r = results[i];
      if (args[i] == 13) {
        ASSERT_EQ(r.outcome, InstanceOutcome::kFaulted) << where << " " << r.error;
        ASSERT_TRUE(r.have_fault) << where;
        EXPECT_EQ(r.fault.op, "boomif") << where;
        EXPECT_EQ(r.error, solo_error) << where;
      } else {
        ASSERT_EQ(r.outcome, InstanceOutcome::kCompleted) << where << " " << r.error;
        EXPECT_EQ(r.value.as_int(), args[i] + 1) << where;
      }
    }
    const InstanceCounters c = mgr.counters();
    EXPECT_EQ(c.completed, 3u) << where;
    EXPECT_EQ(c.faulted, 2u) << where;
  }

  // The simulator reports the same bytes.
  SimRuntime sim(*reg, {});
  InstanceManager mgr(sim);
  for (const int64_t n : args) {
    mgr.submit(req_of(program, "probe", {Value::of(n)}));
  }
  for (const InstanceResult& r : mgr.wait_all()) {
    if (r.outcome == InstanceOutcome::kFaulted) {
      EXPECT_EQ(r.error, solo_error);
    }
  }
}

// ---------------------------------------------------------------------------
// Budgets: activation ceilings (both executors) and time ceilings
// ---------------------------------------------------------------------------

TEST(InstanceBudget_, ActivationCeilingIsDeterministicEverywhere) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(kFibSource, *reg);
  const std::string expected = activation_budget_message(4, 1, "fib");

  for (const int workers : kThreadedWorkers) {
    RuntimeConfig config;
    config.num_workers = workers;
    Runtime runtime(*reg, config);
    InstanceManager mgr(runtime);
    mgr.submit(fib_req(program, 12, {.max_activations = 4}));
    mgr.submit(fib_req(program, 8));
    const std::vector<InstanceResult> results = mgr.wait_all();
    const std::string where = spec_name(workers);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(results[0].outcome, InstanceOutcome::kBudgetExhausted)
        << where << " " << results[0].error;
    EXPECT_EQ(results[0].error, expected) << where;
    EXPECT_GE(results[0].activations, 4u) << where;
    // The sibling never notices the cancellation next door.
    ASSERT_EQ(results[1].outcome, InstanceOutcome::kCompleted)
        << where << " " << results[1].error;
    EXPECT_EQ(results[1].value.as_int(), fib(8)) << where;
    const InstanceCounters c = mgr.counters();
    EXPECT_EQ(c.budget_killed, 1u) << where;
    EXPECT_EQ(c.completed, 1u) << where;
    EXPECT_EQ(mgr.stats().instances_budget_killed, 1u) << where;
  }

  // The virtual machine emits the identical message text.
  SimRuntime sim(*reg, {});
  InstanceManager mgr(sim);
  mgr.submit(fib_req(program, 12, {.max_activations = 4}));
  mgr.submit(fib_req(program, 8));
  const std::vector<InstanceResult> results = mgr.wait_all();
  ASSERT_EQ(results[0].outcome, InstanceOutcome::kBudgetExhausted) << results[0].error;
  EXPECT_EQ(results[0].error, expected);
  ASSERT_EQ(results[1].outcome, InstanceOutcome::kCompleted) << results[1].error;
  EXPECT_EQ(results[1].value.as_int(), fib(8));
}

TEST(InstanceBudget_, DefaultBudgetAppliesWhereRequestLeavesZeros) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(kFibSource, *reg);
  Runtime runtime(*reg, {.num_workers = 2});
  InstanceManagerConfig mconfig;
  mconfig.default_budget.max_activations = 4;
  InstanceManager mgr(runtime, mconfig);
  mgr.submit(fib_req(program, 12));  // inherits the default
  mgr.submit(fib_req(program, 12, {.max_activations = 100000}));
  const std::vector<InstanceResult> results = mgr.wait_all();
  ASSERT_EQ(results[0].outcome, InstanceOutcome::kBudgetExhausted) << results[0].error;
  EXPECT_EQ(results[0].error, activation_budget_message(4, 1, "fib"));
  ASSERT_EQ(results[1].outcome, InstanceOutcome::kCompleted) << results[1].error;
  EXPECT_EQ(results[1].value.as_int(), fib(12));
}

TEST(InstanceBudget_, VirtualTimeCeilingIsExactlyReproducible) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  reg->add("slow_id", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); }).pure();
  // A 10 ms *virtual* stall against a 0.1 ms virtual budget: the join
  // node's start time exceeds the ceiling, deterministically.
  reg->set_fault_plan(plan_of("slow_id:stall=10000000"));
  CompiledProgram slow =
      compile_noopt("stallf(n) add(slow_id(n), 1)\nmain() stallf(1)", *reg);
  CompiledProgram quick = compile_noopt("inc(n) add(n, 1)\nmain() inc(1)", *reg);

  std::string first;
  for (int round = 0; round < 2; ++round) {
    SimRuntime sim(*reg, {});
    InstanceManager mgr(sim);
    mgr.submit(req_of(slow, "stallf", {Value::of(int64_t{1})},
                      {.time_budget_ns = 100000}));
    mgr.submit(req_of(quick, "inc", {Value::of(int64_t{41})}));
    const std::vector<InstanceResult> results = mgr.wait_all();
    ASSERT_EQ(results[0].outcome, InstanceOutcome::kBudgetExhausted) << results[0].error;
    EXPECT_NE(results[0].error.find("instance budget: no result within 100000 virtual ns"
                                    " (instance 1: 'stallf'); cancelling instance"),
              std::string::npos)
        << results[0].error;
    EXPECT_NE(results[0].error.find("stranded activations:"), std::string::npos)
        << results[0].error;
    ASSERT_EQ(results[1].outcome, InstanceOutcome::kCompleted) << results[1].error;
    EXPECT_EQ(results[1].value.as_int(), 42);
    // The whole diagnostic reproduces byte for byte.
    if (round == 0) {
      first = results[0].error;
    } else {
      EXPECT_EQ(results[0].error, first);
    }
  }
}

TEST(InstanceBudget_, WallClockCeilingNamesTheWedgedOperator) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  reg->add("nap", 0, [](OpContext&) {
       std::this_thread::sleep_for(std::chrono::milliseconds(150));
       return Value::of(int64_t{1});
     })
      .pure();
  reg->add("sleepy", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); }).pure();
  CompiledProgram slow = compile_or_throw("main() sleepy(nap())", *reg);
  CompiledProgram fibp = compile_or_throw(kFibSource, *reg);

  Runtime runtime(*reg, {.num_workers = 2});
  {
    InstanceManagerConfig mconfig;
    mconfig.track_busy_workers = true;
    InstanceManager mgr(runtime, mconfig);
    // 30 ms budget against a 150 ms nap; empty function = entry 'main'.
    mgr.submit(req_of(slow, "", {}, {.time_budget_ns = 30000000}));
    mgr.submit(fib_req(fibp, 10));
    const std::vector<InstanceResult> results = mgr.wait_all();
    ASSERT_EQ(results[0].outcome, InstanceOutcome::kBudgetExhausted) << results[0].error;
    const std::string& msg = results[0].error;
    EXPECT_EQ(msg.rfind("instance budget: no result within 30 ms (instance 1: 'main');"
                        " cancelling instance\n",
                        0),
              0u)
        << msg;
    EXPECT_NE(msg.find("busy workers:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("stranded activations:"), std::string::npos) << msg;
    ASSERT_EQ(results[1].outcome, InstanceOutcome::kCompleted) << results[1].error;
    EXPECT_EQ(results[1].value.as_int(), fib(10));
    EXPECT_EQ(mgr.counters().budget_killed, 1u);
  }
  // The machine survives the cancellation: plain runs still work.
  CompiledProgram clean = compile_or_throw("main() sleepy(40)", *reg);
  EXPECT_EQ(runtime.run(clean).as_int(), 40);
}

// ---------------------------------------------------------------------------
// Admission control: deterministic reject-newest shedding
// ---------------------------------------------------------------------------

TEST(InstanceAdmission, RejectNewestIsAFunctionOfTheCallSequence) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_noopt("inc(n) add(n, 1)\nmain() inc(1)", *reg);

  for (const int workers : kThreadedWorkers) {
    RuntimeConfig config;
    config.num_workers = workers;
    Runtime runtime(*reg, config);
    InstanceManagerConfig mconfig;
    mconfig.admission_capacity = 2;
    InstanceManager mgr(runtime, mconfig);
    // Occupancy frees only on wait(), so ids 3 and 4 are shed no matter
    // how quickly the workers drain ids 1 and 2.
    for (int64_t n = 0; n < 4; ++n) {
      mgr.submit(req_of(program, "inc", {Value::of(n)}));
    }
    const std::string where = spec_name(workers);
    const std::vector<InstanceResult> results = mgr.wait_all();
    ASSERT_EQ(results.size(), 4u);
    for (uint64_t id = 1; id <= 2; ++id) {
      ASSERT_EQ(results[id - 1].outcome, InstanceOutcome::kCompleted)
          << where << " " << results[id - 1].error;
      EXPECT_EQ(results[id - 1].value.as_int(), static_cast<int64_t>(id)) << where;
    }
    for (uint64_t id = 3; id <= 4; ++id) {
      ASSERT_EQ(results[id - 1].outcome, InstanceOutcome::kOverload) << where;
      EXPECT_EQ(results[id - 1].error, shed_message(2, id)) << where;
      EXPECT_EQ(results[id - 1].activations, 0u) << where;
    }
    const InstanceCounters c = mgr.counters();
    EXPECT_EQ(c.admitted, 2u) << where;
    EXPECT_EQ(c.completed, 2u) << where;
    EXPECT_EQ(c.shed, 2u) << where;
    EXPECT_EQ(mgr.stats().instances_shed, 2u) << where;
    // wait_all collected everything, so the window is open again.
    const uint64_t id = mgr.submit(req_of(program, "inc", {Value::of(int64_t{9})}));
    EXPECT_EQ(id, 5u) << where;
    const InstanceResult r = mgr.wait(id);
    ASSERT_EQ(r.outcome, InstanceOutcome::kCompleted) << where << " " << r.error;
    EXPECT_EQ(r.value.as_int(), 10) << where;
  }
}

TEST(InstanceAdmission, SimSessionSpansBatchesAndFreesCapacityOnWait) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_noopt("inc(n) add(n, 1)\nmain() inc(1)", *reg);
  SimRuntime sim(*reg, {});
  InstanceManagerConfig mconfig;
  mconfig.admission_capacity = 1;
  InstanceManager mgr(sim, mconfig);
  mgr.submit(req_of(program, "inc", {Value::of(int64_t{1})}));
  mgr.submit(req_of(program, "inc", {Value::of(int64_t{2})}));  // shed: window full
  const InstanceResult first = mgr.wait(1);              // flushes batch 1, frees the slot
  ASSERT_EQ(first.outcome, InstanceOutcome::kCompleted) << first.error;
  EXPECT_EQ(first.value.as_int(), 2);
  EXPECT_EQ(mgr.wait(2).outcome, InstanceOutcome::kOverload);
  EXPECT_EQ(mgr.wait(2).error, shed_message(1, 2));
  const uint64_t id = mgr.submit(req_of(program, "inc", {Value::of(int64_t{3})}));
  EXPECT_EQ(id, 3u);
  const InstanceResult third = mgr.wait(id);  // second batch on a fresh virtual machine
  ASSERT_EQ(third.outcome, InstanceOutcome::kCompleted) << third.error;
  EXPECT_EQ(third.value.as_int(), 4);
  const InstanceCounters c = mgr.counters();
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.shed, 1u);
  // The cumulative tallies survive the batch boundary in stats() too.
  EXPECT_EQ(mgr.stats().instances_admitted, 2u);
  EXPECT_EQ(mgr.stats().instances_shed, 1u);
}

// ---------------------------------------------------------------------------
// Machine reuse: cancellation and shedding leave no residue
// ---------------------------------------------------------------------------

TEST(InstanceReuse, RuntimeReusableAfterWatchdogCancellation) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  reg->add("nap2", 0, [](OpContext&) {
       std::this_thread::sleep_for(std::chrono::milliseconds(200));
       return Value::of(int64_t{1});
     })
      .pure();
  reg->add("sleepy2", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); }).pure();
  CompiledProgram slow = compile_or_throw("main() sleepy2(nap2())", *reg);
  CompiledProgram fibp = compile_or_throw(kFibSource, *reg);

  RuntimeConfig config;
  config.num_workers = 2;
  config.watchdog_budget_ms = 40;
  Runtime runtime(*reg, config);
  EXPECT_THROW(runtime.run(slow), RuntimeError);
  EXPECT_EQ(runtime.last_stats().watchdog_fires, 1u);
  // A whole manager session works on the cancelled machine...
  {
    InstanceManager mgr(runtime);
    mgr.submit(fib_req(fibp, 9));
    mgr.submit(fib_req(fibp, 10));
    const std::vector<InstanceResult> results = mgr.wait_all();
    ASSERT_EQ(results[0].outcome, InstanceOutcome::kCompleted) << results[0].error;
    EXPECT_EQ(results[0].value.as_int(), fib(9));
    ASSERT_EQ(results[1].outcome, InstanceOutcome::kCompleted) << results[1].error;
    EXPECT_EQ(results[1].value.as_int(), fib(10));
  }
  // ...and so does a plain run after the session (watchdog still armed).
  EXPECT_EQ(runtime.run_function(fibp, "fib", {Value::of(int64_t{7})}).as_int(), fib(7));
}

TEST(InstanceReuse, RuntimeReusableAfterAdmissionShed) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw(kFibSource, *reg);
  RuntimeConfig config;
  config.num_workers = 2;
  Runtime runtime(*reg, config);
  {
    InstanceManagerConfig mconfig;
    mconfig.admission_capacity = 1;
    InstanceManager mgr(runtime, mconfig);
    mgr.submit(fib_req(program, 8));
    mgr.submit(fib_req(program, 8));  // shed
    const std::vector<InstanceResult> results = mgr.wait_all();
    EXPECT_EQ(results[0].outcome, InstanceOutcome::kCompleted);
    EXPECT_EQ(results[1].outcome, InstanceOutcome::kOverload);
  }
  EXPECT_EQ(runtime.run_function(program, "fib", {Value::of(int64_t{8})}).as_int(), fib(8));
}

TEST(InstanceReuse, SimReusableAfterWatchdogAndManagerSession) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  reg->add("slow_id2", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); }).pure();
  reg->set_fault_plan(plan_of("slow_id2:stall=10000000"));
  CompiledProgram slow =
      compile_noopt("stallf(n) add(slow_id2(n), 1)\nmain() stallf(1)", *reg);
  CompiledProgram fibp = compile_or_throw(kFibSource, *reg);

  // A machine-wide virtual watchdog big enough for the healthy traffic
  // below but smaller than the injected 10 ms stall.
  SimConfig config;
  config.watchdog_budget_ns = 5000000;
  SimRuntime sim(*reg, config);
  EXPECT_THROW(sim.run(slow), RuntimeError);
  {
    InstanceManager mgr(sim);
    mgr.submit(fib_req(fibp, 10));
    const std::vector<InstanceResult> results = mgr.wait_all();
    ASSERT_EQ(results[0].outcome, InstanceOutcome::kCompleted) << results[0].error;
    EXPECT_EQ(results[0].value.as_int(), fib(10));
  }
  EXPECT_EQ(sim.run_function(fibp, "fib", {Value::of(int64_t{8})}).result.as_int(),
            fib(8));
}

// ---------------------------------------------------------------------------
// Chaos soak: mixed healthy / faulting / budget-busting traffic
// ---------------------------------------------------------------------------

/// One instance's executor-invariant outcome, for cross-config
/// comparison (latencies and activation tallies are schedule-dependent
/// on cancelled instances and deliberately excluded).
struct SoakOutcome {
  InstanceOutcome outcome;
  std::string text;  // error, or the rendered value

  bool operator==(const SoakOutcome& o) const {
    return outcome == o.outcome && text == o.text;
  }
};

std::string render_value(const Value& v) { return std::to_string(v.as_int()); }

TEST(InstanceChaos, SoakMatchesSoloByteForByteAcrossExecutors) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  // Three traffic classes over one shared machine:
  //  - healthy: fib(n), untouched by the plan;
  //  - chaos:   calls chaos_op, which the plan throws into by structural
  //             every= selection — whether a given request faults is a
  //             function of its graph alone, identical to its solo run;
  //  - buster:  fib(14) under a 8-activation ceiling.
  constexpr int kInstances = 45;
  constexpr size_t kCapacity = 40;
  for (const uint64_t seed : {1u, 9u}) {
    auto reg = testing::builtin_registry();
    reg->add("chaos_op", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0) * 3); })
        .pure();
    reg->set_fault_plan(
        plan_of("chaos_op:throw:every=29:seed=" + std::to_string(seed)));
    CompiledProgram fibp = compile_or_throw(kFibSource, *reg);
    CompiledProgram chaos =
        compile_noopt("poke(n) add(chaos_op(n), 1)\nmain() poke(1)", *reg);

    // Request schedule: class = i % 3, arg varies with i.
    struct Req {
      const CompiledProgram* program;
      const char* function;
      int64_t arg;
      InstanceBudget budget;
    };
    std::vector<Req> reqs;
    for (int i = 0; i < kInstances; ++i) {
      switch (i % 3) {
        case 0: reqs.push_back({&fibp, "fib", 6 + (i % 5), {}}); break;
        case 1: reqs.push_back({&chaos, "poke", i, {}}); break;
        default: reqs.push_back({&fibp, "fib", 14, {.max_activations = 8}}); break;
      }
    }

    // Solo references for every distinct (program, arg) request.
    auto solo_of = [&](const Req& r) -> SoakOutcome {
      Runtime solo(*reg, {.num_workers = 2});
      try {
        return {InstanceOutcome::kCompleted,
                render_value(
                    solo.run_function(*r.program, r.function, {Value::of(r.arg)}))};
      } catch (const FaultError& e) {
        return {InstanceOutcome::kFaulted, e.what()};
      }
    };

    auto run_config = [&](auto&& make_engine) -> std::vector<SoakOutcome> {
      auto engine = make_engine();
      InstanceManagerConfig mconfig;
      mconfig.admission_capacity = kCapacity;
      InstanceManager mgr(*engine, mconfig);
      for (const Req& r : reqs) {
        mgr.submit(req_of(*r.program, r.function, {Value::of(r.arg)}, r.budget));
      }
      std::vector<SoakOutcome> out;
      for (const InstanceResult& r : mgr.wait_all()) {
        out.push_back({r.outcome, r.outcome == InstanceOutcome::kCompleted
                                      ? render_value(r.value)
                                      : r.error});
      }
      const InstanceCounters c = mgr.counters();
      EXPECT_EQ(c.admitted, static_cast<uint64_t>(kCapacity));
      EXPECT_EQ(c.shed, static_cast<uint64_t>(kInstances - kCapacity));
      EXPECT_EQ(c.admitted, c.completed + c.faulted + c.budget_killed);
      EXPECT_EQ(c.live, 0u);
      return out;
    };

    const std::vector<SoakOutcome> threaded = run_config([&] {
      RuntimeConfig c;
      c.num_workers = 8;
      return std::make_unique<Runtime>(*reg, c);
    });
    const std::vector<SoakOutcome> sim = run_config([&] {
      return std::make_unique<SimRuntime>(*reg, SimConfig{});
    });

    ASSERT_EQ(threaded.size(), static_cast<size_t>(kInstances));
    ASSERT_EQ(sim.size(), static_cast<size_t>(kInstances));
    for (int i = 0; i < kInstances; ++i) {
      const uint64_t id = static_cast<uint64_t>(i) + 1;
      const std::string where = "seed " + std::to_string(seed) + " instance " +
                                std::to_string(id) + " (class " + std::to_string(i % 3) +
                                ")";
      // Both executors report the identical outcome bytes.
      EXPECT_TRUE(sim[i] == threaded[i])
          << where << "\n threaded: " << threaded[i].text << "\n sim: " << sim[i].text;

      const SoakOutcome& r = threaded[i];
      if (id > kCapacity) {
        EXPECT_EQ(r.outcome, InstanceOutcome::kOverload) << where;
        EXPECT_EQ(r.text, shed_message(kCapacity, id)) << where;
        continue;
      }
      switch (i % 3) {
        case 0:  // healthy: always completes with the solo value
          ASSERT_EQ(r.outcome, InstanceOutcome::kCompleted) << where << " " << r.text;
          EXPECT_EQ(r.text, std::to_string(fib(6 + (i % 5)))) << where;
          break;
        case 1: {  // chaos: whatever its solo run does, byte for byte
          const SoakOutcome solo = solo_of(reqs[static_cast<size_t>(i)]);
          EXPECT_EQ(r.outcome, solo.outcome) << where;
          EXPECT_EQ(r.text, solo.text) << where;
          break;
        }
        default:  // buster: structured budget kill with deterministic text
          ASSERT_EQ(r.outcome, InstanceOutcome::kBudgetExhausted) << where << " "
                                                                  << r.text;
          EXPECT_EQ(r.text, activation_budget_message(8, id, "fib")) << where;
          break;
      }
    }
  }
}

}  // namespace
}  // namespace delirium
