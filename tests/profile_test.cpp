// Trace-driven cost profiles (docs/PROFILING.md): round-trip of the
// JSON calibration format, profile determinism across executors,
// capacity-plan golden output, malformed-profile diagnostics, and the
// cost-hint equivalence proof (feedback scheduling changes only the
// schedule, never values or faults).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include "src/core/compiler.h"
#include "src/tools/analysis_json.h"
#include "src/tools/profile.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ExecutorFixture;
using testing::ExecutorSpec;
using testing::ScopedEnv;

/// Every knob that could perturb schedules, costs, or hint marks —
/// cleared so CI jobs with suite-wide exports stay hermetic.
constexpr std::initializer_list<const char*> kProfileEnv = {
    "DELIRIUM_GRAPH_FACTS", "DELIRIUM_FACTS_FOLD",  "DELIRIUM_FACTS_DEADPARAM",
    "DELIRIUM_FACTS_STRAND", "DELIRIUM_FACTS_SOLE", "DELIRIUM_FACTS_FUSE",
    "DELIRIUM_FACTS_TUPLES", "DELIRIUM_SCHED_HINTS", "DELIRIUM_COST_HINTS",
    "DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES",    "DELIRIUM_EXECUTOR",
    "DELIRIUM_TRACE",         "DELIRIUM_TRACE_CAPACITY"};

OperatorRegistry& registry() {
  static OperatorRegistry* reg = [] {
    auto* r = new OperatorRegistry();
    register_builtin_operators(*r);
    return r;
  }();
  return *reg;
}

/// Compile with the AST optimizer off, as facts_test does: the fan
/// program below is all-constant, and folding it away would leave the
/// traces (and therefore the profiles and plans) empty.
CompileResult compile(const std::string& source) {
  CompileOptions options;
  options.optimize = false;
  CompileResult result = compile_source("profile_test.dlr", source, registry(), options);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  return result;
}

/// A diamond with an add-reduction tail: enough parallel slack that the
/// 1 -> 2 -> 4 worker sweep produces distinct makespans.
constexpr const char* kFanProgram = R"(
main()
  let a = mul(2, 3)
      b = mul(4, 5)
      c = mul(6, 7)
      d = mul(8, 9)
  in add(add(a, b), add(c, d))
)";

/// A handcrafted profile with known shape: mul is 10x the cost of add.
tools::CostProfile fan_profile() {
  tools::CostProfile profile;
  for (int i = 0; i < 4; ++i) profile.operators["mul"].observe(10000);
  for (int i = 0; i < 3; ++i) profile.operators["add"].observe(1000);
  return profile;
}

// ---------------------------------------------------------------------------
// Round-trip
// ---------------------------------------------------------------------------

TEST(Profile, WriteLoadWriteIsByteIdentical) {
  tools::CostProfile profile = fan_profile();
  profile.operators["odd \"name\""].observe(7);  // escaping survives too
  const std::string once = tools::cost_profile_to_json(profile);
  const tools::CostProfile loaded = tools::load_cost_profile(once);
  EXPECT_EQ(tools::cost_profile_to_json(loaded), once);
  // The restored histograms answer queries identically, not just
  // serialize identically.
  EXPECT_EQ(loaded.operators.at("mul").count(), 4u);
  EXPECT_EQ(loaded.operators.at("mul").total(), 40000);
  EXPECT_EQ(loaded.operators.at("mul").percentile(0.99),
            profile.operators.at("mul").percentile(0.99));
}

TEST(Profile, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/profile_roundtrip.json";
  const tools::CostProfile profile = fan_profile();
  ASSERT_TRUE(tools::write_cost_profile_file(path, profile));
  const tools::CostProfile loaded = tools::load_cost_profile_file(path);
  EXPECT_EQ(tools::cost_profile_to_json(loaded), tools::cost_profile_to_json(profile));
  std::remove(path.c_str());
}

TEST(Profile, EmptyProfileRoundTrips) {
  const tools::CostProfile empty;
  const std::string json = tools::cost_profile_to_json(empty);
  EXPECT_EQ(tools::cost_profile_to_json(tools::load_cost_profile(json)), json);
}

// ---------------------------------------------------------------------------
// Building from traces
// ---------------------------------------------------------------------------

TEST(Profile, SimProfileIsByteDeterministicUnderFixedCosts) {
  ScopedEnv env(kProfileEnv);
  CompileResult result = compile(kFanProgram);
  const std::unordered_map<std::string, Ticks> fixed = {{"mul", 5000}, {"add", 700}};
  auto profile_once = [&] {
    SimConfig config;
    config.num_procs = 2;
    config.enable_tracing = true;
    config.fixed_costs = &fixed;
    SimRuntime sim(registry(), config);
    sim.run(result.program);
    return tools::cost_profile_to_json(
        tools::profile_from_trace(sim.trace_events(), registry()));
  };
  const std::string first = profile_once();
  EXPECT_EQ(profile_once(), first);
  // Under fixed costs the virtual begin/end deltas ARE the fixed costs.
  const tools::CostProfile profile = tools::load_cost_profile(first);
  EXPECT_EQ(profile.operators.at("mul").min(), 5000);
  EXPECT_EQ(profile.operators.at("mul").max(), 5000);
  EXPECT_EQ(profile.operators.at("add").min(), 700);
}

TEST(Profile, SimAndThreadedProfilesAgreeOnAttemptCounts) {
  ScopedEnv env(kProfileEnv);
  CompileResult result = compile(kFanProgram);
  auto counts = [&](const tools::CostProfile& p) {
    std::map<std::string, uint64_t> out;
    for (const auto& [op, h] : p.operators) out[op] = h.count();
    return out;
  };
  SimConfig sconfig;
  sconfig.num_procs = 4;
  sconfig.enable_tracing = true;
  SimRuntime sim(registry(), sconfig);
  sim.run(result.program);
  const auto sim_counts =
      counts(tools::profile_from_trace(sim.trace_events(), registry()));

  RuntimeConfig rconfig;
  rconfig.num_workers = 4;
  rconfig.enable_tracing = true;
  Runtime runtime(registry(), rconfig);
  runtime.run(result.program);
  const auto thr_counts =
      counts(tools::profile_from_trace(runtime.trace_events(), registry()));

  EXPECT_EQ(sim_counts, thr_counts);
  EXPECT_EQ(sim_counts.at("mul"), 4u);
  EXPECT_EQ(sim_counts.at("add"), 3u);
}

// ---------------------------------------------------------------------------
// Malformed profiles
// ---------------------------------------------------------------------------

void expect_error_naming(const std::string& text, const std::string& field) {
  try {
    tools::load_cost_profile(text);
    FAIL() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Profile, MalformedProfileNamesTheOffendingField) {
  expect_error_naming(R"({"schema": "bogus", "version": 1, "operators": {}})", "schema");
  expect_error_naming(
      R"({"schema": "delirium.cost_profile", "version": 9, "operators": {}})", "version");
  expect_error_naming(R"({"schema": "delirium.cost_profile", "version": 1})", "operators");
  // count disagrees with the bucket sum.
  expect_error_naming(
      R"({"schema": "delirium.cost_profile", "version": 1, "operators": {
            "add": {"count": 3, "total_ns": 10, "min_ns": 1, "max_ns": 9,
                    "buckets": {"2": 2}}}})",
      "operators.add.count");
  // bucket index out of range.
  expect_error_naming(
      R"({"schema": "delirium.cost_profile", "version": 1, "operators": {
            "add": {"count": 1, "total_ns": 10, "min_ns": 10, "max_ns": 10,
                    "buckets": {"77": 1}}}})",
      "operators.add.buckets.77");
  // unknown per-operator field.
  expect_error_naming(
      R"({"schema": "delirium.cost_profile", "version": 1, "operators": {
            "add": {"count": 0, "total_ns": 0, "min_ns": 0, "max_ns": 0,
                    "buckets": {}, "bogus": 1}}})",
      "operators.add.bogus");
  expect_error_naming("not json at all", "cost profile");
}

// ---------------------------------------------------------------------------
// Cost model distillation
// ---------------------------------------------------------------------------

TEST(Profile, CostModelUsesPerOperatorMeans) {
  const CostModel model = tools::to_cost_model(fan_profile());
  EXPECT_EQ(model.cost_of("mul"), 10000);
  EXPECT_EQ(model.cost_of("add"), 1000);
  // Unprofiled operators fall back to the profile-wide mean.
  EXPECT_EQ(model.cost_of("never_seen"), model.default_cost_ns);
  EXPECT_GT(model.default_cost_ns, 1000);
  EXPECT_LT(model.default_cost_ns, 10000);
}

TEST(Profile, BudgetFromProfileIsHeadroomedP99Sum) {
  const tools::CostProfile profile = fan_profile();
  int64_t p99_sum = 0;
  for (const auto& [op, h] : profile.operators) {
    p99_sum += static_cast<int64_t>(h.count()) * h.percentile(0.99);
  }
  EXPECT_EQ(tools::budget_from_profile(profile), tools::kBudgetHeadroom * p99_sum);
  EXPECT_GT(p99_sum, 0);
  EXPECT_EQ(tools::budget_from_profile(tools::CostProfile{}), 0);
}

// ---------------------------------------------------------------------------
// Capacity planning
// ---------------------------------------------------------------------------

TEST(Plan, GoldenJson) {
  ScopedEnv env(kProfileEnv);
  CompileResult result = compile(kFanProgram);
  const tools::CapacityPlan plan =
      tools::plan_capacity(result.program, registry(), fan_profile(), {1, 2, 4},
                           /*target_ns=*/20000);
  const std::string json = tools::render_plan_json(plan, "profile_test.dlr");

  const std::string golden_path = std::string(DELIRIUM_GOLDEN_DIR) + "/plan_shared.json";
  if (std::getenv("DELIRIUM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden_path) << json;
  }
  std::ifstream golden(golden_path);
  ASSERT_TRUE(golden.good()) << "missing golden file";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(json, expected.str());
}

TEST(Plan, SweepIsDeterministicAndMonotonicallySummarized) {
  ScopedEnv env(kProfileEnv);
  CompileResult result = compile(kFanProgram);
  const tools::CapacityPlan a =
      tools::plan_capacity(result.program, registry(), fan_profile());
  const tools::CapacityPlan b =
      tools::plan_capacity(result.program, registry(), fan_profile());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].makespan_ns, b.points[i].makespan_ns) << i;
  }
  EXPECT_EQ(a.serial_makespan_ns, a.points.front().makespan_ns);
  EXPECT_GT(a.best_workers, 0);
  EXPECT_GT(a.knee_workers, 0);
  EXPECT_LE(a.knee_workers, a.best_workers);
  EXPECT_LE(a.best_makespan_ns, a.serial_makespan_ns);
  // The fan-out has real parallel slack: two workers beat one.
  EXPECT_LT(a.points[1].makespan_ns, a.points[0].makespan_ns);
}

TEST(Plan, TextReportNamesTheSummary) {
  ScopedEnv env(kProfileEnv);
  CompileResult result = compile(kFanProgram);
  const tools::CapacityPlan plan = tools::plan_capacity(
      result.program, registry(), fan_profile(), {1, 2}, /*target_ns=*/1);
  const std::string text = tools::render_plan_text(plan, "profile_test.dlr");
  EXPECT_NE(text.find("plan: profile_test.dlr"), std::string::npos) << text;
  EXPECT_NE(text.find("best:"), std::string::npos) << text;
  EXPECT_NE(text.find("knee:"), std::string::npos) << text;
  // A 1 ns target is unmeetable and must say so rather than pick 0.
  EXPECT_NE(text.find("not met"), std::string::npos) << text;
  EXPECT_EQ(plan.target_workers, 0);
}

// ---------------------------------------------------------------------------
// Feedback scheduling: equivalence + the promotion counter
// ---------------------------------------------------------------------------

/// Recursion plus fan-out, so hints have schedules to steer everywhere.
constexpr const char* kEquivalenceProgram = R"(
fib(n)
  if less_than(n, 2) then n
  else add(fib(sub(n, 1)), fib(sub(n, 2)))
main()
  let a = fib(8)
      b = mul(3, 4)
      c = mul(5, 6)
  in add(a, add(b, c))
)";

TEST(CostHints, ValuesAndFaultsAreIdenticalWithHintsOnAndOff) {
  ScopedEnv env(kProfileEnv);
  // Re-mark the program from a deliberately skewed cost model, then run
  // the whole executor matrix with hints honored and ignored: the
  // fixture asserts deep-equal values, identical fault counters, and
  // equal deterministic trace multisets against the reference executor.
  CompileResult result = compile(kEquivalenceProgram);
  CostModel model;
  model.op_cost_ns = {{"mul", 500000}, {"add", 200}, {"sub", 100}, {"less_than", 50}};
  const size_t marked = apply_sched_hints(result.program, result.facts, model);
  ASSERT_GT(marked, 0u);

  ExecutorFixture on;
  on.config().cost_hints = true;
  const Value with_hints = on.expect_equivalent(result.program).value_or_rethrow();

  ExecutorFixture off;
  off.config().cost_hints = false;
  const Value without = off.expect_equivalent(result.program).value_or_rethrow();
  EXPECT_TRUE(deep_equal(with_hints, without));
}

TEST(CostHints, FaultingRunsReportIdenticallyWithHintsOnAndOff) {
  ScopedEnv env(kProfileEnv);
  CompileResult result = compile(kEquivalenceProgram);
  CostModel model;
  model.op_cost_ns = {{"mul", 900000}};
  ASSERT_GT(apply_sched_hints(result.program, result.facts, model), 0u);

  auto fault_text = [&](bool hints) {
    SimConfig config;
    config.cost_hints = hints;
    config.num_procs = 4;
    // A deterministic structural injection: every 2nd mul attempt throws.
    OperatorRegistry faulty;
    register_builtin_operators(faulty);
    faulty.set_fault_plan(std::make_shared<const FaultPlan>(
        FaultPlan::parse("mul:throw:every=2")));
    SimRuntime faulty_sim(faulty, config);
    try {
      faulty_sim.run(result.program);
      return std::string("no fault");
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(fault_text(true), fault_text(false));
}

TEST(CostHints, SimCountsCostPromotionsSeparately) {
  ScopedEnv env(kProfileEnv);
  CompileResult result = compile(kEquivalenceProgram);
  CostModel model;
  model.op_cost_ns = {{"mul", 500000}};
  ASSERT_GT(apply_sched_hints(result.program, result.facts, model), 0u);

  SimConfig config;
  config.num_procs = 2;
  SimRuntime sim(registry(), config);
  sim.run(result.program);
  // Cost-derived marks land in the dedicated counter, not the static one.
  EXPECT_GT(sim.last_stats().sched_cost_promotions, 0u);
  EXPECT_EQ(sim.last_stats().sched_hint_promotions, 0u);

  // The kill switch suppresses both.
  SimConfig off = config;
  off.cost_hints = false;
  SimRuntime sim_off(registry(), off);
  sim_off.run(result.program);
  EXPECT_EQ(sim_off.last_stats().sched_cost_promotions, 0u);
  EXPECT_EQ(sim_off.last_stats().sched_hint_promotions, 0u);
}

TEST(CostHints, CostOverloadRespectsDisabledHeightsAnalysis) {
  ScopedEnv env(kProfileEnv);
  env.set("DELIRIUM_SCHED_HINTS", "0");
  CompileResult result = compile(kEquivalenceProgram);
  CostModel model;
  model.op_cost_ns = {{"mul", 500000}};
  // Heights were never computed, so the cost overload must mark nothing.
  EXPECT_EQ(apply_sched_hints(result.program, result.facts, model), 0u);
}

// ---------------------------------------------------------------------------
// delc end-to-end: --plan bytes survive flag and executor perturbation
// ---------------------------------------------------------------------------

std::pair<int, std::string> run_command(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(Plan, DelcPlanBytesSurviveSchedulerExecutorAndRecompiles) {
  const std::string dir = ::testing::TempDir();
  const std::string program = dir + "/plan_determinism.dlr";
  const std::string profile = dir + "/plan_determinism_profile.json";
  {
    // delc optimizes, so use the recursive program: the fan is
    // all-constant and would fold to a trivial graph.
    std::ofstream out(program);
    out << kEquivalenceProgram;
  }
  ASSERT_TRUE(tools::write_cost_profile_file(profile, fan_profile()));

  const std::string delc = DELIRIUM_DELC_PATH;
  const std::string base = delc + " --plan --profile-in " + profile +
                           " --format json " + program + " 2>/dev/null";
  const std::string hermetic = "env -u DELIRIUM_EXECUTOR ";
  auto [ref_status, ref] = run_command(hermetic + base);
  ASSERT_EQ(ref_status, 0);
  ASSERT_NE(ref.find("\"schema\": \"delirium.plan\""), std::string::npos) << ref;

  // Recompile (same invocation), the worker flag, the threaded executor
  // by flag and by env knob: none may move a byte.
  const std::string perturbed[] = {
      hermetic + base,
      hermetic + delc + " --plan --profile-in " + profile + " --format json --workers 7 " +
          program + " 2>/dev/null",
      hermetic + delc + " --plan --profile-in " + profile +
          " --format json --executor threaded " + program + " 2>/dev/null",
      "env DELIRIUM_EXECUTOR=threaded " + base,
  };
  for (const std::string& cmd : perturbed) {
    auto [status, out] = run_command(cmd);
    EXPECT_EQ(status, 0) << cmd;
    EXPECT_EQ(out, ref) << cmd;
  }
  std::remove(program.c_str());
  std::remove(profile.c_str());
}

TEST(Plan, DelcRejectsPlanWithoutProfile) {
  const std::string program = ::testing::TempDir() + "/plan_noprofile.dlr";
  {
    std::ofstream out(program);
    out << "main() add(1, 2)\n";
  }
  auto [status, out] =
      run_command(std::string(DELIRIUM_DELC_PATH) + " --plan " + program + " 2>&1");
  EXPECT_EQ(status, 2);
  EXPECT_NE(out.find("--plan requires --profile-in"), std::string::npos) << out;
  std::remove(program.c_str());
}

TEST(Plan, DelcProfileRoundTripThroughFiles) {
  // delc --profile-out, then --profile-in of those bytes: loading and
  // re-serializing reproduces the file exactly (write -> load -> write).
  const std::string dir = ::testing::TempDir();
  const std::string program = dir + "/profile_cycle.dlr";
  const std::string profile = dir + "/profile_cycle.json";
  {
    std::ofstream out(program);
    out << kEquivalenceProgram;
  }
  auto [status, out] = run_command("env -u DELIRIUM_EXECUTOR -u DELIRIUM_TRACE " +
                                   std::string(DELIRIUM_DELC_PATH) + " --sim 2 --profile-out " +
                                   profile + " " + program + " 2>&1");
  ASSERT_EQ(status, 0) << out;
  std::ifstream in(profile);
  ASSERT_TRUE(in.good());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(tools::cost_profile_to_json(tools::load_cost_profile(bytes.str())),
            bytes.str());
  std::remove(program.c_str());
  std::remove(profile.c_str());
}

}  // namespace
}  // namespace delirium
