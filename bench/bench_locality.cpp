// Locality model UMA→strongly-NUMA sweep (docs/RUNTIME.md "Locality
// model"): measures what topology-aware placement buys, entirely in
// virtual time so the numbers are deterministic and meaningful on any
// host (including single-core CI).
//
// Protocol: every leg replays fixed per-operator costs through
// SimRuntime, so a "measurement" is an exact virtual-ns makespan. D big
// blocks, each homed in its own NUMA domain, are each fanned out to F
// readers. The locality-AWARE schedule (data affinity + domain-biased
// selection, the defaults) keeps every reader in its block's home
// domain; the locality-BLIND schedule (affinity none,
// DELIRIUM_LOCALITY=0 semantics) scatters readers FIFO and pays the
// inter-domain per-KiB transfer + migration surcharge per pull. The
// bench FAILS (exit 1) if aware is not >= 1.2x at the strongly-NUMA
// (cluster) point, or if it leaves ±5% at the penalty-0 multi-domain
// point (same domains, zero costs — placement must be free when memory
// is uniform).
//
// A JSON path as the only argument writes the results
// (BENCH_locality.json is a recorded run).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/delirium.h"
#include "src/runtime/sim.h"
#include "src/support/topology.h"
#include "src/tools/report.h"

using namespace delirium;

namespace {

constexpr int kProcs = 8;
constexpr int kBlocks = 4;   // one per numa4/cluster domain; 2 per numa2 domain
constexpr int kFanout = 8;   // readers per block
constexpr int64_t kReadNs = 20000;
constexpr int64_t kJoinNs = 200;

/// kBlocks producers fanned out to kFanout readers each, joined by a
/// cheap add tree. Producers are unbound, so the first kBlocks virtual
/// processors take them FIFO — striping homes each block in its own
/// domain. The readers are where placement matters.
std::string reader_source() {
  std::string rsum = "weigh(b)";
  for (int i = 1; i < kFanout; ++i) rsum = "add(" + rsum + ", weigh(b))";
  std::string source = "rsum(b) " + rsum + "\nmain()\n  let";
  for (int i = 0; i < kBlocks; ++i) {
    source += std::string(i == 0 ? " " : "      ") + "b" + std::to_string(i) +
              " = make_data()\n";
  }
  std::string join = "rsum(b0)";
  for (int i = 1; i < kBlocks; ++i) join = "add(" + join + ", rsum(b" + std::to_string(i) + "))";
  return source + "  in " + join + "\n";
}

std::shared_ptr<OperatorRegistry> locality_registry() {
  auto reg = std::make_shared<OperatorRegistry>();
  register_builtin_operators(*reg);
  reg->add("make_data", 0, [](OpContext&) {
    return Value::block(std::vector<double>(1 << 15, 1.0));  // 256 KiB
  });
  reg->add("weigh", 1, [](OpContext& ctx) {
    const auto& data = ctx.arg_block<std::vector<double>>(0);
    double sum = 0;
    for (double d : data) sum += d;
    return Value::of(static_cast<int64_t>(sum));
  });
  return reg;
}

int64_t virtual_makespan(const CompiledProgram& program, const OperatorRegistry& registry,
                         const std::unordered_map<std::string, Ticks>& costs,
                         SimConfig config, int procs) {
  config.num_procs = procs;
  config.fixed_costs = &costs;
  config.fixed_cost_default_ns = kJoinNs;
  SimRuntime sim(registry, config);
  return sim.run(program).makespan;
}

struct SweepPoint {
  std::string topology;
  int64_t aware_ns = 0;
  int64_t blind_ns = 0;
  uint64_t aware_pulls = 0;
  uint64_t blind_pulls = 0;
  double ratio() const {
    return static_cast<double>(blind_ns) / static_cast<double>(aware_ns);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "";

  auto registry = locality_registry();
  const CompiledProgram program = compile_or_throw(reader_source(), *registry);
  const std::unordered_map<std::string, Ticks> costs = {
      {"make_data", kReadNs}, {"weigh", kReadNs}, {"add", kJoinNs}};

  // -- Sweep: UMA -> strongly NUMA, locality-aware vs locality-blind ----------
  // "numa4:inter=0,migrate=0" is the penalty-0 control: same four
  // domains, so the aware schedule still reorders, but memory is
  // uniform — placement must cost nothing.
  const std::vector<std::string> topologies = {"numa4:inter=0,migrate=0", "numa2",
                                               "numa4", "cluster"};
  std::vector<SweepPoint> sweep;
  for (const std::string& spec : topologies) {
    SweepPoint point;
    point.topology = spec;
    const MemoryTopology topo = parse_topology(spec, "bench_locality");

    SimConfig aware;
    aware.topology = topo;
    aware.affinity = AffinityMode::kData;  // locality_scheduling defaults on
    SimConfig blind;
    blind.topology = topo;
    blind.affinity = AffinityMode::kNone;
    blind.locality_scheduling = false;

    point.aware_ns = virtual_makespan(program, *registry, costs, aware, kProcs);
    point.blind_ns = virtual_makespan(program, *registry, costs, blind, kProcs);
    {
      SimConfig probe = aware;
      probe.num_procs = kProcs;
      probe.fixed_costs = &costs;
      probe.fixed_cost_default_ns = kJoinNs;
      SimRuntime sim(*registry, probe);
      sim.run(program);
      point.aware_pulls = sim.last_stats().remote_block_moves;
      probe = blind;
      probe.num_procs = kProcs;
      probe.fixed_costs = &costs;
      probe.fixed_cost_default_ns = kJoinNs;
      SimRuntime sim_blind(*registry, probe);
      sim_blind.run(program);
      point.blind_pulls = sim_blind.last_stats().remote_block_moves;
    }
    sweep.push_back(point);
  }

  tools::Table sweep_table({"topology", "aware (ns)", "blind (ns)", "blind/aware",
                            "aware pulls", "blind pulls"});
  for (const SweepPoint& p : sweep) {
    sweep_table.add_row({p.topology, std::to_string(p.aware_ns),
                         std::to_string(p.blind_ns), tools::Table::ratio(p.ratio()),
                         std::to_string(p.aware_pulls), std::to_string(p.blind_pulls)});
  }
  std::printf("locality-aware vs locality-blind on the %d-block x %d-reader fan-out "
              "(%d virtual procs):\n",
              kBlocks, kFanout, kProcs);
  sweep_table.print(std::cout);

  const double zero_ratio = sweep.front().ratio();
  const bool zero_ok = zero_ratio >= 0.95 && zero_ratio <= 1.05;
  const double cluster_ratio = sweep.back().ratio();
  const bool cluster_ok = cluster_ratio >= 1.2;

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"bench_locality\",\n"
       << "  \"procs\": " << kProcs << ",\n"
       << "  \"blocks\": " << kBlocks << ",\n"
       << "  \"fanout\": " << kFanout << ",\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f", p.ratio());
    json << "    {\"topology\": \"" << p.topology << "\", \"aware_ns\": " << p.aware_ns
         << ", \"blind_ns\": " << p.blind_ns << ", \"ratio\": " << ratio
         << ", \"aware_pulls\": " << p.aware_pulls
         << ", \"blind_pulls\": " << p.blind_pulls << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fputs(json.str().c_str(), stdout);
  }

  if (!zero_ok) {
    std::fprintf(stderr,
                 "FAIL: locality-aware scheduling regressed the penalty-0 point "
                 "(blind/aware %.3f) — placement must be free on uniform memory\n",
                 zero_ratio);
    return 1;
  }
  if (!cluster_ok) {
    std::fprintf(stderr,
                 "FAIL: locality-aware under 1.2x at the cluster point "
                 "(blind/aware %.3f)\n",
                 cluster_ratio);
    return 1;
  }
  std::printf("penalty-0 within ±5%%; aware >= 1.2x at cluster\n");
  return 0;
}
