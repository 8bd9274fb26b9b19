// Case study #1 tests: the Delirium-coordinated retina model must be
// bitwise identical to the sequential reference, for both coordination
// versions, at every worker count — the determinism guarantee of §8.
#include <gtest/gtest.h>

#include "src/apps/retina/retina_ops.h"
#include "src/delirium.h"

namespace delirium::retina {
namespace {

RetinaParams small_params() {
  RetinaParams p;
  p.width = 64;
  p.height = 64;
  p.num_targets = 12;
  p.num_iter = 3;
  p.seed = 7;
  return p;
}

TEST(RetinaModel, SequentialRunIsDeterministic) {
  const RetinaParams p = small_params();
  const double a = checksum(sequential_run(p));
  const double b = checksum(sequential_run(p));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0.0);
}

TEST(RetinaModel, ChecksumChangesWithSeed) {
  RetinaParams p = small_params();
  const double a = checksum(sequential_run(p));
  p.seed = 8;
  const double b = checksum(sequential_run(p));
  EXPECT_NE(a, b);
}

TEST(RetinaModel, TimestepAdvances) {
  const RetinaParams p = small_params();
  EXPECT_EQ(sequential_run(p).timestep, p.num_iter);
}

TEST(RetinaModel, TargetsBounceInsideBounds) {
  RetinaParams p = small_params();
  p.num_iter = 50;
  const RetinaModel m = sequential_run(p);
  for (const Target& t : m.targets) {
    EXPECT_GE(t.x, 0.0f);
    EXPECT_LT(t.x, static_cast<float>(p.width) + 2.0f);
    EXPECT_GE(t.y, 0.0f);
    EXPECT_LT(t.y, static_cast<float>(p.height) + 2.0f);
  }
}

TEST(RetinaModel, KernelIsNormalized) {
  float total = 0;
  for (const auto& row : kernel()) {
    for (float w : row) total += w;
  }
  EXPECT_NEAR(total, 1.0f, 1e-4f);
}

class RetinaParallel : public ::testing::TestWithParam<std::tuple<RetinaVersion, int>> {};

TEST_P(RetinaParallel, MatchesSequentialBitwise) {
  const auto [version, workers] = GetParam();
  const RetinaParams p = small_params();

  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_retina_operators(registry, p);

  Runtime runtime(registry, {.num_workers = workers});
  const RetinaModel parallel = delirium_run(p, version, runtime);
  const RetinaModel sequential = sequential_run(p);

  EXPECT_EQ(parallel.timestep, sequential.timestep);
  // Bitwise: identical arithmetic in identical order, per quarter.
  for (int q = 0; q < kQuarters; ++q) {
    EXPECT_EQ(parallel.accum[q], sequential.accum[q]) << "quarter " << q;
    EXPECT_EQ(parallel.bipolar[q], sequential.bipolar[q]) << "quarter " << q;
    EXPECT_EQ(parallel.motion[q], sequential.motion[q]) << "quarter " << q;
  }
  EXPECT_EQ(checksum(parallel), checksum(sequential));
}

std::string retina_param_name(
    const ::testing::TestParamInfo<std::tuple<RetinaVersion, int>>& info) {
  const RetinaVersion version = std::get<0>(info.param);
  const int workers = std::get<1>(info.param);
  return std::string(version == RetinaVersion::kV1Imbalanced ? "V1" : "V2") + "Workers" +
         std::to_string(workers);
}

INSTANTIATE_TEST_SUITE_P(
    AllVersionsAndWorkerCounts, RetinaParallel,
    ::testing::Combine(::testing::Values(RetinaVersion::kV1Imbalanced,
                                         RetinaVersion::kV2Balanced),
                       ::testing::Values(1, 2, 3, 4, 8)),
    retina_param_name);

TEST(RetinaParallelProperties, NoCopyOnWriteCopies) {
  // The coordination splits data so every destructive operator holds the
  // sole reference: the run must trigger zero CoW block copies.
  const RetinaParams p = small_params();
  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_retina_operators(registry, p);
  Runtime runtime(registry, {.num_workers = 4});
  delirium_run(p, RetinaVersion::kV2Balanced, runtime);
  EXPECT_EQ(runtime.last_stats().cow_copies, 0u);
}

TEST(RetinaParallelProperties, TraceSlicesNameTheOperators) {
  const RetinaParams p = small_params();
  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_retina_operators(registry, p);
  RuntimeConfig config{.num_workers = 2};
  config.enable_tracing = true;
  Runtime runtime(registry, config);
  delirium_run(p, RetinaVersion::kV1Imbalanced, runtime);

  int convol_bites = 0;
  int post_ups = 0;
  for (const OpSlice& s : op_slices(runtime.trace_events())) {
    const std::string& op = registry.at(static_cast<size_t>(s.op)).info.name;
    if (op == "convol_bite") ++convol_bites;
    if (op == "post_up") ++post_ups;
  }
  EXPECT_EQ(convol_bites, p.num_iter * kKernelSize * kQuarters);
  EXPECT_EQ(post_ups, p.num_iter * kKernelSize);
}

}  // namespace
}  // namespace delirium::retina
