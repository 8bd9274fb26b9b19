// Locality model tests (docs/RUNTIME.md "Locality model"): the
// MemoryTopology grammar and presets, BlockHome packing, and — the
// load-bearing contract — that topology, affinity, and locality-aware
// scheduling are performance models only: values, fault reports, and
// deterministic trace multisets are byte-identical across every
// topology, both executors, and affinity on/off.
//
// Suites are named Locality* so CI can select them with `-R Locality`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/delirium.h"
#include "src/runtime/sim.h"
#include "src/support/env.h"
#include "src/support/topology.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ExecutorFixture;
using testing::ExecutorOutcome;
using testing::ExecutorSpec;
using testing::ScopedEnv;

// ---------------------------------------------------------------------------
// MemoryTopology: presets, domain striping, parse grammar
// ---------------------------------------------------------------------------

TEST(LocalityTopology, UmaPresetIsTheCostlessDefault) {
  const MemoryTopology topo = MemoryTopology::uma();
  EXPECT_EQ(topo, MemoryTopology{});
  EXPECT_EQ(topo.num_domains, 1);
  EXPECT_TRUE(topo.single_domain());
  EXPECT_FALSE(topo.models_cost());
  for (int w : {0, 1, 7}) EXPECT_EQ(topo.domain_of(w), 0);
}

TEST(LocalityTopology, PresetsModelIncreasinglyRemoteMemory) {
  const MemoryTopology numa2 = MemoryTopology::numa2();
  const MemoryTopology numa4 = MemoryTopology::numa4();
  const MemoryTopology cluster = MemoryTopology::cluster();
  EXPECT_EQ(numa2.num_domains, 2);
  EXPECT_EQ(numa4.num_domains, 4);
  EXPECT_EQ(cluster.num_domains, 4);
  EXPECT_TRUE(numa2.models_cost());
  EXPECT_LT(numa2.inter_kib_cost_ns, numa4.inter_kib_cost_ns);
  EXPECT_LT(numa4.inter_kib_cost_ns, cluster.inter_kib_cost_ns);
  EXPECT_LT(numa4.migration_cost_ns, cluster.migration_cost_ns);
}

TEST(LocalityTopology, DomainStripingIsWorkerModuloDomains) {
  const MemoryTopology numa4 = MemoryTopology::numa4();
  EXPECT_EQ(numa4.domain_of(0), 0);
  EXPECT_EQ(numa4.domain_of(5), 1);
  EXPECT_EQ(numa4.domain_of(7), 3);
  EXPECT_EQ(numa4.domain_of(-1), -1);
  // num_domains == 0 is the degenerate one-domain-per-worker (flat)
  // topology: every worker is its own domain.
  const MemoryTopology flat = MemoryTopology::flat(250);
  EXPECT_EQ(flat.num_domains, 0);
  EXPECT_EQ(flat.domain_of(3), 3);
  EXPECT_EQ(flat.inter_kib_cost_ns, 250);
  EXPECT_EQ(flat.migration_cost_ns, 0);
  EXPECT_FALSE(flat.single_domain());
}

TEST(LocalityTopology, ParseAcceptsPresetsAndKeyOverrides) {
  EXPECT_EQ(parse_topology("uma", "test"), MemoryTopology::uma());
  EXPECT_EQ(parse_topology("numa2", "test"), MemoryTopology::numa2());
  EXPECT_EQ(parse_topology("cluster", "test"), MemoryTopology::cluster());

  const MemoryTopology custom =
      parse_topology("numa2:domains=8,intra=5,inter=900,migrate=0", "test");
  EXPECT_EQ(custom.num_domains, 8);
  EXPECT_EQ(custom.intra_kib_cost_ns, 5);
  EXPECT_EQ(custom.inter_kib_cost_ns, 900);
  EXPECT_EQ(custom.migration_cost_ns, 0);

  const MemoryTopology flat = parse_topology("flat:inter=1000", "test");
  EXPECT_EQ(flat.num_domains, 0);
  EXPECT_EQ(flat.inter_kib_cost_ns, 1000);
}

TEST(LocalityTopology, ParseRejectsMalformedSpecsNamingTheSource) {
  for (const char* bad : {"", "butterfly", "numa2:watts=3", "numa2:inter=",
                          "numa2:inter=abc", "numa2:inter=-5", "numa2:domains=1x"}) {
    try {
      parse_topology(bad, "DELIRIUM_TOPOLOGY");
      FAIL() << "accepted '" << bad << "'";
    } catch (const EnvError& e) {
      // The diagnostic names the source knob and echoes the bad spec.
      EXPECT_NE(std::string(e.what()).find("DELIRIUM_TOPOLOGY"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// BlockHome: the packed (worker, domain) placement word
// ---------------------------------------------------------------------------

TEST(LocalityBlockHome, DefaultIsUnplacedAndRoundTrips) {
  Value v = Value::block(std::vector<double>{1.0, 2.0});
  BlockBase& blk = *v.block_ptr();
  EXPECT_EQ(blk.home_worker(), -1);
  EXPECT_EQ(blk.home_domain(), -1);
  blk.set_home(5, 1);
  EXPECT_EQ(blk.home_worker(), 5);
  EXPECT_EQ(blk.home_domain(), 1);
  blk.set_home(-1, -1);
  EXPECT_EQ(blk.home_worker(), -1);
  EXPECT_EQ(blk.home_domain(), -1);
  // Large coordinates survive the 32-bit halves.
  blk.set_home(1 << 20, 255);
  EXPECT_EQ(blk.home_worker(), 1 << 20);
  EXPECT_EQ(blk.home_domain(), 255);
}

// ---------------------------------------------------------------------------
// Equivalence: topology and affinity never change what a program means
// ---------------------------------------------------------------------------

std::shared_ptr<OperatorRegistry> locality_registry() {
  auto reg = testing::builtin_registry();
  reg->add("make_data", 0, [](OpContext&) {
    return Value::block(std::vector<double>(1 << 13, 1.0));  // 64 KiB
  });
  reg->add("scale", 1, [](OpContext& ctx) {
    Value v = ctx.take(0);
    for (double& d : v.block_mut<std::vector<double>>()) d *= 2.0;
    return v;
  }).destructive(0);
  reg->add("weigh", 1, [](OpContext& ctx) {
    const auto& data = ctx.arg_block<std::vector<double>>(0);
    double sum = 0;
    for (double d : data) sum += d;
    return Value::of(static_cast<int64_t>(sum));
  });
  reg->add("sum4", 4, [](OpContext& ctx) {
    return Value::of(ctx.arg_int(0) + ctx.arg_int(1) + ctx.arg_int(2) + ctx.arg_int(3));
  });
  reg->add("combine", 2, [](OpContext& ctx) {
    const auto& a = ctx.arg_block<std::vector<double>>(0);
    const auto& b = ctx.arg_block<std::vector<double>>(1);
    return Value::of(static_cast<int64_t>(a.size() + b.size()));
  });
  reg->add("boom", 1, [](OpContext& ctx) -> Value {
    if (ctx.arg_int(0) > 2) throw RuntimeError("boom: input out of range");
    return ctx.take(0);
  });
  return reg;
}

// A block-heavy fan-out: four 64-KiB blocks produced, mutated, and
// reduced — under a multi-domain topology this forces cross-domain
// pulls, migrations, and (threaded) domain-biased steals.
constexpr const char* kBlockFanOut = R"(
main()
  let a = weigh(scale(make_data()))
      b = weigh(scale(make_data()))
      c = weigh(scale(make_data()))
      d = weigh(scale(make_data()))
  in sum4(a, b, c, d)
)";

// Two blocks produced on (up to) two different workers, then joined by
// one consumer: under any multi-domain topology with two processors the
// join necessarily pulls at least one block across domains.
constexpr const char* kBlockJoin = R"(
main()
  let a = scale(make_data())
      b = scale(make_data())
  in combine(a, b)
)";

const std::vector<MemoryTopology>& all_topologies() {
  static const std::vector<MemoryTopology> topologies = {
      MemoryTopology::uma(), MemoryTopology::numa2(), MemoryTopology::numa4(),
      MemoryTopology::cluster()};
  return topologies;
}

TEST(LocalityEquivalence, ValuesAndTracesIdenticalAcrossTopologies) {
  auto reg = locality_registry();
  const CompiledProgram program = compile_or_throw(kBlockFanOut, *reg);
  ExecutorOutcome ref;
  for (size_t i = 0; i < all_topologies().size(); ++i) {
    ExecutorFixture fixture(*reg);
    fixture.config().topology = all_topologies()[i];
    fixture.config().affinity = AffinityMode::kData;
    // Within one topology: the whole executor matrix agrees.
    const ExecutorOutcome got = fixture.expect_equivalent(program);
    ASSERT_FALSE(got.faulted()) << got.error_text;
    EXPECT_EQ(got.value.as_int(), 4 * 2 * (1 << 13));
    if (i == 0) {
      ref = got;
      continue;
    }
    // Across topologies: values, graph-determined counters, and the
    // deterministic trace multiset are byte-identical too.
    const std::string where = "topology " + all_topologies()[i].name + " vs uma";
    EXPECT_TRUE(deep_equal(got.value, ref.value)) << where;
    EXPECT_EQ(got.stats.nodes_executed, ref.stats.nodes_executed) << where;
    EXPECT_EQ(got.stats.operator_invocations, ref.stats.operator_invocations) << where;
    EXPECT_EQ(got.stats.activations_created, ref.stats.activations_created) << where;
    EXPECT_EQ(got.trace, ref.trace) << where;
  }
}

TEST(LocalityEquivalence, FaultReportsIdenticalAcrossTopologies) {
  auto reg = locality_registry();
  const CompiledProgram program = compile_or_throw(
      "main() let a = weigh(make_data()) in boom(a)", *reg);
  std::string ref_error;
  for (size_t i = 0; i < all_topologies().size(); ++i) {
    ExecutorFixture fixture(*reg);
    fixture.config().topology = all_topologies()[i];
    fixture.config().affinity = AffinityMode::kData;
    const ExecutorOutcome got = fixture.expect_equivalent(program);
    ASSERT_TRUE(got.faulted());
    EXPECT_NE(got.error_text.find("boom: input out of range"), std::string::npos);
    if (i == 0) ref_error = got.error_text;
    else EXPECT_EQ(got.error_text, ref_error)
        << "topology " << all_topologies()[i].name << " vs uma";
  }
}

TEST(LocalityEquivalence, DataAffinityNeverChangesOutcomesVersusNone) {
  // Satellite contract: AffinityMode::kData (and the in-domain worker
  // selection behind it) is placement only. Values, fault reports, and
  // trace multisets match a kNone run on every executor and topology.
  auto reg = locality_registry();
  for (const char* source :
       {kBlockFanOut, "main() let a = weigh(make_data()) in boom(a)"}) {
    const CompiledProgram program = compile_or_throw(source, *reg);
    for (const MemoryTopology& topo : {MemoryTopology::uma(), MemoryTopology::numa4()}) {
      ExecutorFixture fixture(*reg);
      fixture.config().topology = topo;
      fixture.config().affinity = AffinityMode::kNone;
      const ExecutorOutcome none = fixture.expect_equivalent(program);
      fixture.config().affinity = AffinityMode::kData;
      const ExecutorOutcome data = fixture.expect_equivalent(program);
      const std::string where = "affinity data vs none, topology " + topo.name;
      EXPECT_EQ(data.faulted(), none.faulted()) << where;
      if (none.faulted()) {
        EXPECT_EQ(data.error_text, none.error_text) << where;
      } else {
        EXPECT_TRUE(deep_equal(data.value, none.value)) << where;
        EXPECT_EQ(data.trace, none.trace) << where;
      }
      EXPECT_EQ(data.stats.nodes_executed, none.stats.nodes_executed) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Cost model: legacy flat penalty, counters, and the sim's exact charges
// ---------------------------------------------------------------------------

Ticks fixed_cost_makespan(const OperatorRegistry& reg, const CompiledProgram& program,
                          SimConfig config) {
  static const std::unordered_map<std::string, Ticks> kNoCosts;
  config.num_procs = 2;
  config.fixed_costs = &kNoCosts;  // every op costs the default — deterministic
  config.fixed_cost_default_ns = 100;
  SimRuntime sim(reg, config);
  return sim.run(program).makespan;
}

TEST(LocalityCost, SimCountsRemotePullsAndBytesUnderMultiDomainTopology) {
  auto reg = locality_registry();
  const CompiledProgram program = compile_or_throw(kBlockJoin, *reg);
  SimConfig numa;
  numa.topology = MemoryTopology::numa2();
  numa.num_procs = 2;
  SimRuntime sim(*reg, numa);
  const SimResult r = sim.run(program);
  // Two virtual processors in two different domains: the combine join
  // necessarily pulls at least one 64-KiB block across domains.
  EXPECT_GE(r.stats.remote_block_moves, 1u);
  EXPECT_GE(r.stats.remote_bytes_pulled, uint64_t{1} << 16);
  // Steal counters are a threaded-machine concept: always zero in sim.
  EXPECT_EQ(r.stats.sched_local_steals, 0u);
  EXPECT_EQ(r.stats.sched_remote_steals, 0u);

  SimConfig uma;
  uma.num_procs = 2;
  SimRuntime sim_uma(*reg, uma);
  const SimResult r_uma = sim_uma.run(program);
  EXPECT_EQ(r_uma.stats.remote_block_moves, 0u);
  EXPECT_EQ(r_uma.stats.remote_bytes_pulled, 0u);
}

TEST(LocalityCost, ThreadedStealSplitSumsToTotalSteals) {
  auto reg = locality_registry();
  const CompiledProgram program = compile_or_throw(kBlockFanOut, *reg);
  for (const MemoryTopology& topo :
       {MemoryTopology::uma(), MemoryTopology::numa2(), MemoryTopology::flat(0)}) {
    RuntimeConfig config;
    config.num_workers = 4;
    config.topology = topo;
    Runtime runtime(*reg, config);
    runtime.run(program);
    const RunStats s = runtime.last_stats();
    EXPECT_EQ(s.sched_local_steals + s.sched_remote_steals, s.sched_steals)
        << "topology " << topo.name;
    // The split is keyed off the victim's actual domain: under one
    // domain every steal is local; under per-worker domains every
    // cross-worker steal is remote.
    if (topo.single_domain()) {
      EXPECT_EQ(s.sched_remote_steals, 0u);
    }
    if (topo.num_domains == 0) {
      EXPECT_EQ(s.sched_local_steals, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Environment knobs: DELIRIUM_TOPOLOGY / DELIRIUM_AFFINITY / DELIRIUM_LOCALITY
// ---------------------------------------------------------------------------

TEST(LocalityEnv, TopologyEnvMatchesExplicitConfigByteForByte) {
  auto reg = locality_registry();
  const CompiledProgram program = compile_or_throw(kBlockFanOut, *reg);
  ScopedEnv env({"DELIRIUM_TOPOLOGY", "DELIRIUM_AFFINITY", "DELIRIUM_LOCALITY"});
  SimConfig explicit_config;
  explicit_config.topology = MemoryTopology::cluster();
  const Ticks explicit_makespan = fixed_cost_makespan(*reg, program, explicit_config);
  env.set("DELIRIUM_TOPOLOGY", "cluster");
  EXPECT_EQ(fixed_cost_makespan(*reg, program, SimConfig{}), explicit_makespan);
}

TEST(LocalityEnv, MalformedKnobsFailLoudlyAtConstruction) {
  auto reg = locality_registry();
  ScopedEnv env({"DELIRIUM_TOPOLOGY", "DELIRIUM_AFFINITY", "DELIRIUM_LOCALITY"});
  env.set("DELIRIUM_TOPOLOGY", "hypercube");
  EXPECT_THROW(SimRuntime(*reg, SimConfig{}), EnvError);
  EXPECT_THROW(Runtime(*reg, RuntimeConfig{}), EnvError);
  env.set("DELIRIUM_TOPOLOGY", "numa2");
  env.set("DELIRIUM_AFFINITY", "everywhere");
  EXPECT_THROW(SimRuntime(*reg, SimConfig{}), EnvError);
  EXPECT_THROW(Runtime(*reg, RuntimeConfig{}), EnvError);
}

TEST(LocalityEnv, LocalityKillSwitchKeepsValuesAndCostModel) {
  // DELIRIUM_LOCALITY=0 disables the *scheduling* policy but not the
  // topology cost model: remote pulls are still charged and counted.
  auto reg = locality_registry();
  const CompiledProgram program = compile_or_throw(kBlockJoin, *reg);
  ScopedEnv env({"DELIRIUM_TOPOLOGY", "DELIRIUM_AFFINITY", "DELIRIUM_LOCALITY"});
  env.set("DELIRIUM_LOCALITY", "0");
  SimConfig config;
  config.topology = MemoryTopology::cluster();
  config.num_procs = 2;
  config.affinity = AffinityMode::kData;
  SimRuntime sim(*reg, config);
  const SimResult r = sim.run(program);
  EXPECT_EQ(r.result.as_int(), 2 * (1 << 13));
  EXPECT_GE(r.stats.remote_block_moves, 1u);
}

}  // namespace
}  // namespace delirium
