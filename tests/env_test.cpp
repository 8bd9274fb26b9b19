// Unified DELIRIUM_* environment parsing (src/support/env.h): every
// knob shares one contract — unset (or empty) falls back to the
// caller's default, a well-formed value overrides it, and a malformed
// value throws EnvError naming the variable and quoting the offending
// text. The end-to-end cases pin the motivating bug: a typo like
// DELIRIUM_AFFINITY=operater must fail loudly, not silently run the
// wrong configuration.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/support/env.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ScopedEnv;

constexpr const char* kVar = "DELIRIUM_ENV_TEST_KNOB";

/// Expect `fn` to throw EnvError whose message names the variable and
/// quotes the offending value.
template <typename Fn>
void expect_env_error(Fn&& fn, const std::string& value) {
  try {
    fn();
    FAIL() << "expected EnvError for value '" << value << "'";
  } catch (const EnvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
}

TEST(EnvRaw, UnsetAndEmptyAreBothAbsent) {
  ScopedEnv env({kVar});
  EXPECT_FALSE(env_raw(kVar).has_value());
  // `DELIRIUM_X= ./prog` is the idiomatic way to neutralize a knob
  // exported earlier in a script, so empty means unset.
  env.set(kVar, "");
  EXPECT_FALSE(env_raw(kVar).has_value());
  env.set(kVar, "value");
  ASSERT_TRUE(env_raw(kVar).has_value());
  EXPECT_EQ(*env_raw(kVar), "value");
}

TEST(EnvFlag, AcceptsDocumentedSpellingsOnly) {
  ScopedEnv env({kVar});
  EXPECT_TRUE(env_flag(kVar, true));    // unset -> fallback
  EXPECT_FALSE(env_flag(kVar, false));  // either fallback
  for (const char* off : {"0", "false", "off"}) {
    env.set(kVar, off);
    EXPECT_FALSE(env_flag(kVar, true)) << off;
  }
  for (const char* on : {"1", "true", "on"}) {
    env.set(kVar, on);
    EXPECT_TRUE(env_flag(kVar, false)) << on;
  }
  // Case-sensitive, matching the documented forms; no yes/no aliases.
  for (const char* bad : {"2", "ON", "True", "yes", "no", " 1"}) {
    env.set(kVar, bad);
    expect_env_error([&] { env_flag(kVar, true); }, bad);
  }
}

TEST(EnvInt, ParsesInFullAndChecksRange) {
  ScopedEnv env({kVar});
  EXPECT_EQ(env_int(kVar, 42), 42);  // unset -> fallback
  env.set(kVar, "17");
  EXPECT_EQ(env_int(kVar, 42), 17);
  env.set(kVar, "-3");
  EXPECT_EQ(env_int(kVar, 42), -3);
  // No silently-ignored trailing text (the strtoll failure mode).
  for (const char* bad : {"17x", "0x10", "1.5", "", "ten", "1 "}) {
    env.set(kVar, bad);
    if (*bad == '\0') {
      EXPECT_EQ(env_int(kVar, 42), 42);  // empty = unset
    } else {
      expect_env_error([&] { env_int(kVar, 42); }, bad);
    }
  }
  env.set(kVar, "99");
  EXPECT_EQ(env_int(kVar, 0, 1, 99), 99);
  expect_env_error([&] { env_int(kVar, 0, 1, 98); }, "99");
  env.set(kVar, "0");
  expect_env_error([&] { env_int(kVar, 1, 1, 98); }, "0");
}

TEST(EnvChoice, ReturnsIndexAndListsSpellingsOnError) {
  ScopedEnv env({kVar});
  EXPECT_EQ(env_choice(kVar, {"alpha", "beta"}, 1u), 1u);  // unset -> fallback
  env.set(kVar, "alpha");
  EXPECT_EQ(env_choice(kVar, {"alpha", "beta"}, 1u), 0u);
  env.set(kVar, "beta");
  EXPECT_EQ(env_choice(kVar, {"alpha", "beta"}, 0u), 1u);
  env.set(kVar, "gamma");
  try {
    env_choice(kVar, {"alpha", "beta"}, 0u);
    FAIL() << "expected EnvError";
  } catch (const EnvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find("'gamma'"), std::string::npos) << what;
    EXPECT_NE(what.find("alpha, beta"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// End to end: the knobs consume the shared helpers
// ---------------------------------------------------------------------------

TEST(EnvKnobs, AffinityTypoFailsLoudlyAtConstruction) {
  ScopedEnv env({"DELIRIUM_AFFINITY"});
  auto reg = testing::builtin_registry();
  env.set("DELIRIUM_AFFINITY", "operater");
  try {
    Runtime runtime(*reg, {.num_workers = 1});
    FAIL() << "expected EnvError";
  } catch (const EnvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DELIRIUM_AFFINITY"), std::string::npos) << what;
    EXPECT_NE(what.find("'operater'"), std::string::npos) << what;
    EXPECT_NE(what.find("operator"), std::string::npos) << what;
  }
  env.set("DELIRIUM_AFFINITY", "operator");
  Runtime runtime(*reg, {.num_workers = 1});
  EXPECT_EQ(runtime.config().affinity, AffinityMode::kOperator);
}

TEST(EnvKnobs, TraceFlagRejectsGarbage) {
  ScopedEnv env({"DELIRIUM_TRACE"});
  auto reg = testing::builtin_registry();
  env.set("DELIRIUM_TRACE", "maybe");
  try {
    Runtime runtime(*reg, {.num_workers = 1});
    FAIL() << "expected EnvError";
  } catch (const EnvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DELIRIUM_TRACE"), std::string::npos) << what;
    EXPECT_NE(what.find("'maybe'"), std::string::npos) << what;
  }
}

TEST(EnvKnobs, RetriesOverrideParsesViaSharedHelper) {
  ScopedEnv env({"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES"});
  auto reg = testing::builtin_registry();
  reg->add("flaky", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); }).pure();
  reg->set_fault_plan(std::make_shared<const FaultPlan>(
      FaultPlan::parse("flaky:throw:fail_attempts=1")));
  CompiledProgram program = compile_or_throw("main() flaky(7)", *reg);

  env.set("DELIRIUM_RETRIES", "2");
  {
    Runtime runtime(*reg, {.num_workers = 2});
    EXPECT_EQ(runtime.run(program).as_int(), 7);
    EXPECT_EQ(runtime.last_stats().retries, 1u);
  }
  env.set("DELIRIUM_RETRIES", "two");
  {
    Runtime runtime(*reg, {.num_workers = 2});
    try {
      runtime.run(program);
      FAIL() << "expected EnvError";
    } catch (const EnvError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DELIRIUM_RETRIES"), std::string::npos) << what;
      EXPECT_NE(what.find("'two'"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace delirium
