// Compile-time contract of the ExecConfig split: every knob shared by
// the threaded runtime and the simulator must live in ExecConfig — and
// *only* there. The member-pointer asserts below fail if a derived
// config ever re-declares (shadows) a shared knob: a shadowing member
// would make `&RuntimeConfig::knob` a `RuntimeConfig::*` pointer rather
// than the inherited `ExecConfig::*`, silently splitting one knob into
// two for code (like ExecutorFixture and apply_exec_env_overrides) that
// reads the base slice.
//
// Deliberately NOT shared, and so absent from the list: the watchdog
// budget. The threaded runtime's watchdog is *wall-clock milliseconds*
// (RuntimeConfig::watchdog_budget_ms) while the simulator's is
// *virtual nanoseconds* (SimConfig::watchdog_budget_ns); collapsing
// them into one field would silently conflate the two clocks.
#include <gtest/gtest.h>

#include <type_traits>

#include "src/delirium.h"
#include "src/runtime/sim.h"

namespace delirium {
namespace {

static_assert(std::is_base_of_v<ExecConfig, RuntimeConfig>,
              "RuntimeConfig must derive from ExecConfig");
static_assert(std::is_base_of_v<ExecConfig, SimConfig>,
              "SimConfig must derive from ExecConfig");

// Each shared knob exists exactly once, in the base: taking its address
// through either derived config yields an ExecConfig member pointer.
#define DELIRIUM_EXPECT_SHARED_KNOB(type, member)                                        \
  static_assert(std::is_same_v<decltype(&RuntimeConfig::member), type ExecConfig::*>,    \
                #member " is shadowed in RuntimeConfig — it must live in ExecConfig");   \
  static_assert(std::is_same_v<decltype(&SimConfig::member), type ExecConfig::*>,        \
                #member " is shadowed in SimConfig — it must live in ExecConfig")

DELIRIUM_EXPECT_SHARED_KNOB(bool, use_priorities);
DELIRIUM_EXPECT_SHARED_KNOB(bool, cost_hints);
DELIRIUM_EXPECT_SHARED_KNOB(bool, enable_tail_calls);
DELIRIUM_EXPECT_SHARED_KNOB(AffinityMode, affinity);
DELIRIUM_EXPECT_SHARED_KNOB(MemoryTopology, topology);
DELIRIUM_EXPECT_SHARED_KNOB(bool, locality_scheduling);
DELIRIUM_EXPECT_SHARED_KNOB(bool, unique_fastpath);
DELIRIUM_EXPECT_SHARED_KNOB(int, max_retries);
DELIRIUM_EXPECT_SHARED_KNOB(int64_t, retry_backoff_ns);
DELIRIUM_EXPECT_SHARED_KNOB(bool, fail_fast);
DELIRIUM_EXPECT_SHARED_KNOB(bool, enable_tracing);
DELIRIUM_EXPECT_SHARED_KNOB(size_t, trace_capacity);

#undef DELIRIUM_EXPECT_SHARED_KNOB

// And the executor-specific knobs stay in their own config — each clock
// keeps its unit in its name.
static_assert(std::is_same_v<decltype(&RuntimeConfig::watchdog_budget_ms),
                             int64_t RuntimeConfig::*>);
static_assert(std::is_same_v<decltype(&SimConfig::watchdog_budget_ns),
                             int64_t SimConfig::*>);
static_assert(std::is_same_v<decltype(&RuntimeConfig::num_workers), int RuntimeConfig::*>);
static_assert(std::is_same_v<decltype(&SimConfig::num_procs), int SimConfig::*>);

TEST(ExecConfig, BaseSliceAssignmentCarriesEverySharedKnobToBothConfigs) {
  // The fixture and the tools configure a single ExecConfig and assign
  // it into both derived configs via the base slice; flipping every knob
  // away from its default and reading it back through each derived
  // config proves the slice covers the whole shared surface.
  ExecConfig shared;
  shared.use_priorities = !shared.use_priorities;
  shared.cost_hints = !shared.cost_hints;
  shared.enable_tail_calls = !shared.enable_tail_calls;
  shared.affinity = AffinityMode::kData;
  shared.topology = MemoryTopology::numa2();
  shared.locality_scheduling = !shared.locality_scheduling;
  shared.unique_fastpath = !shared.unique_fastpath;
  shared.max_retries = 5;
  shared.retry_backoff_ns = 12345;
  shared.fail_fast = !shared.fail_fast;
  shared.enable_tracing = !shared.enable_tracing;
  shared.trace_capacity = 4096;

  RuntimeConfig rconfig;
  static_cast<ExecConfig&>(rconfig) = shared;
  SimConfig sconfig;
  static_cast<ExecConfig&>(sconfig) = shared;
  for (const ExecConfig* config :
       {static_cast<const ExecConfig*>(&rconfig), static_cast<const ExecConfig*>(&sconfig)}) {
    EXPECT_EQ(config->use_priorities, shared.use_priorities);
    EXPECT_EQ(config->cost_hints, shared.cost_hints);
    EXPECT_EQ(config->enable_tail_calls, shared.enable_tail_calls);
    EXPECT_EQ(config->affinity, shared.affinity);
    EXPECT_EQ(config->topology, shared.topology);
    EXPECT_EQ(config->locality_scheduling, shared.locality_scheduling);
    EXPECT_EQ(config->unique_fastpath, shared.unique_fastpath);
    EXPECT_EQ(config->max_retries, shared.max_retries);
    EXPECT_EQ(config->retry_backoff_ns, shared.retry_backoff_ns);
    EXPECT_EQ(config->fail_fast, shared.fail_fast);
    EXPECT_EQ(config->enable_tracing, shared.enable_tracing);
    EXPECT_EQ(config->trace_capacity, shared.trace_capacity);
  }
}

}  // namespace
}  // namespace delirium
