// The retina case study (§5): runs the v1 (imbalanced) and v2 (balanced)
// coordination frameworks, prints the node-timing report the paper uses
// to diagnose load imbalance, and verifies both against the sequential
// original.
//
//   $ ./retina_demo [size] [workers] [trace.json]
//
// The node timings come from the trace event stream's operator slices.
// With a third argument, the stream of the last run is also written as
// Chrome/Perfetto JSON (load at https://ui.perfetto.dev) — slices sit at
// their real start timestamps, so load imbalance shows up as visible
// gaps. See docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

#include "src/apps/retina/retina_ops.h"
#include "src/delirium.h"
#include "src/tools/metrics.h"
#include "src/tools/trace.h"

using namespace delirium;
using namespace delirium::retina;

namespace {

void report(const Runtime& runtime, const char* label) {
  // Aggregate node timings per operator, like reading the paper's dump.
  std::map<std::string, LogHistogram> agg;
  tools::add_named(agg, op_histograms(runtime.trace_events()), runtime.registry());
  std::printf("--- node timings (%s) ---\n", label);
  for (const auto& [op, h] : agg) {
    std::printf("  call of %-13s x%-4d avg %8.0f ticks\n", op.c_str(),
                static_cast<int>(h.count()),
                static_cast<double>(h.total()) / static_cast<double>(h.count()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  RetinaParams params;
  params.width = params.height = argc > 1 ? std::atoi(argv[1]) : 256;
  params.num_targets = 48;
  params.num_iter = 3;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string trace_path = argc > 3 ? argv[3] : "";

  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_retina_operators(registry, params);

  const RetinaModel reference = sequential_run(params);
  std::printf("sequential checksum: %.6f\n\n", checksum(reference));

  RuntimeConfig config{.num_workers = workers};
  config.enable_tracing = true;
  Runtime runtime(registry, config);
  for (const auto version : {RetinaVersion::kV1Imbalanced, RetinaVersion::kV2Balanced}) {
    const char* label = version == RetinaVersion::kV1Imbalanced ? "v1 (imbalanced post_up)"
                                                                : "v2 (balanced update)";
    const RetinaModel model = delirium_run(params, version, runtime);
    report(runtime, label);
    std::printf("  checksum %s (cow copies: %llu)\n\n",
                checksum(model) == checksum(reference) ? "matches sequential" : "MISMATCH",
                static_cast<unsigned long long>(runtime.last_stats().cow_copies));
  }
  // The trace covers the last run (v2): each run resets the stream.
  if (!trace_path.empty() &&
      tools::write_trace_events_file(trace_path, runtime.trace_events(), registry)) {
    std::printf("wrote trace events to %s\n", trace_path.c_str());
  }
  return 0;
}
