// Figure 1 reproduction: retina simulation speedup vs processor count.
//
// Paper (Cray Y-MP, final/v2 coordination): speedup ~3.3 on 4 processors,
// with 3 processors performing almost exactly like 2 (four equal tasks:
// one processor does two of them).
//
// Host substitution: the paper's processor counts are simulated in
// virtual time (SimRuntime), so the curve does not depend on the host's
// hardware threads. Operators execute for real; per-invocation costs
// are calibrated once (median of 3 single-processor runs) and replayed,
// so the curves are deterministic. See DESIGN.md.
#include <cstdio>
#include <iostream>

#include "src/apps/retina/retina_ops.h"
#include "src/delirium.h"
#include "src/runtime/sim.h"
#include "src/tools/report.h"

using namespace delirium;
using namespace delirium::retina;

int main() {
  RetinaParams params;
  params.width = params.height = 512;
  params.num_targets = 64;
  params.num_iter = 4;
  params.seed = 7;

  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_retina_operators(registry, params);

  std::printf("Figure 1: Retina Simulation speedup (virtual processors)\n");
  std::printf("paper reference (v2 on Cray Y-MP): 1 -> 1.0, 2 -> ~1.9, 3 -> ~2.0, 4 -> 3.3\n\n");

  const double seq_checksum = checksum(sequential_run(params));

  for (const auto version : {RetinaVersion::kV2Balanced, RetinaVersion::kV1Imbalanced}) {
    const bool v2 = version == RetinaVersion::kV2Balanced;
    CompiledProgram program = compile_or_throw(retina_source(version, params), registry);
    const CostTable costs = calibrate_costs(registry, program, 3);

    tools::Table table({"processors", "makespan (ms)", "speedup", "efficiency", "checksum ok"});
    double base_ms = 0;
    for (int procs : {1, 2, 3, 4, 8}) {
      SimConfig config;
      config.num_procs = procs;
      config.replay_costs = &costs;
      SimRuntime sim(registry, config);
      SimResult result = sim.run(program);
      const double ms = static_cast<double>(result.makespan) / 1e6;
      if (procs == 1) base_ms = ms;
      const double speedup = base_ms / ms;
      const bool ok =
          checksum(result.result.block_as<RetinaModel>()) == seq_checksum;
      table.add_row({std::to_string(procs), tools::Table::ms(ms),
                     tools::Table::ratio(speedup),
                     tools::Table::ratio(speedup / procs), ok ? "yes" : "NO"});
    }
    std::printf("%s coordination (%s):\n", v2 ? "v2 (final, balanced)" : "v1 (first attempt)",
                v2 ? "the Figure 1 program" : "capped below 2 by sequential post_up");
    table.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
