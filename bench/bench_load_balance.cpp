// §5.2 reproduction: diagnosing load imbalance with node timings.
//
// Paper: the first coordination version showed post_up alternating
// between negligible cost and "as long as all the convolutions
// combined", capping speedup below 2 regardless of processor count.
// Decomposing the update into a four-way fork-join (update_bite) gave
// almost perfect balance.
//
// This bench prints the node-timing evidence for both versions, exactly
// the diagnostic workflow the paper describes, from the trace event
// stream's operator slices. It exits non-zero when an operator it
// tabulates has no slices, or when v1's heavy/light post_up ratio falls
// below kMinPostUpRatio (the alternation the diagnosis rests on).
#include <algorithm>
#include <cstdio>
#include <map>
#include <iostream>

#include "src/apps/retina/retina_ops.h"
#include "src/delirium.h"
#include "src/tools/metrics.h"
#include "src/tools/report.h"

using namespace delirium;
using namespace delirium::retina;

constexpr double kMinPostUpRatio = 10.0;

int main() {
  RetinaParams params;
  params.width = params.height = 384;
  params.num_targets = 48;
  params.num_iter = 2;
  params.seed = 7;

  OperatorRegistry registry;
  register_builtin_operators(registry);
  register_retina_operators(registry, params);

  RuntimeConfig config{.num_workers = 1};
  config.enable_tracing = true;
  Runtime runtime(registry, config);

  for (const auto version : {RetinaVersion::kV1Imbalanced, RetinaVersion::kV2Balanced}) {
    const bool v1 = version == RetinaVersion::kV1Imbalanced;
    delirium_run(params, version, runtime);
    std::printf("=== %s ===\n", v1 ? "v1: post_up merges and updates sequentially"
                                   : "v2: update decomposed into update_bite x4");
    const std::vector<OpSlice> slices = op_slices(runtime.trace_events());
    auto label = [&registry](const OpSlice& s) -> const std::string& {
      return *tools::operator_name(registry, s.op);
    };

    // The paper-style trace excerpt: one slab's worth of calls.
    std::printf("node timing excerpt:\n");
    size_t shown = 0;
    for (const OpSlice& s : slices) {
      const std::string& op = label(s);
      if (op == "incr" || op == "is_not_equal") continue;
      if (op == "set_up" || op == "target_split" || op == "target_bite") continue;
      std::printf("  call of %s took %lld\n", op.c_str(), static_cast<long long>(s.duration));
      if (++shown >= 14) break;
    }

    // Per-op duration lists; light/heavy invocations are separated by
    // the median split (heavy slabs are every other slab).
    std::map<std::string, std::vector<Ticks>> durations;
    for (const OpSlice& s : slices) durations[label(s)].push_back(s.duration);
    auto median = [](std::vector<Ticks> v) -> double {
      if (v.empty()) return 0;
      std::sort(v.begin(), v.end());
      return static_cast<double>(v[v.size() / 2]);
    };
    auto heavy_median = [&median](const std::vector<Ticks>& v) -> double {
      std::vector<Ticks> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      return median(std::vector<Ticks>(sorted.begin() + static_cast<long>(sorted.size() / 2),
                                       sorted.end()));
    };
    auto light_median = [&median](const std::vector<Ticks>& v) -> double {
      std::vector<Ticks> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      return median(std::vector<Ticks>(sorted.begin(),
                                       sorted.begin() + static_cast<long>(sorted.size() / 2)));
    };

    tools::Table table(
        {"operator", "calls", "light median (us)", "heavy median (us)"});
    const std::vector<const char*> tabulated =
        v1 ? std::vector<const char*>{"convol_bite", "post_up"}
           : std::vector<const char*>{"convol_bite", "update_bite", "done_up"};
    int missing = 0;
    for (const char* op : tabulated) {
      const std::vector<Ticks>& d = durations[op];
      if (d.empty()) {
        std::fprintf(stderr, "FAIL: no %s slices in the trace\n", op);
        ++missing;
        continue;
      }
      table.add_row({op, std::to_string(d.size()), tools::Table::ms(light_median(d) / 1e3, 0),
                     tools::Table::ms(heavy_median(d) / 1e3, 0)});
    }
    table.print(std::cout);
    if (missing > 0) return 1;

    const double bite = median(durations.at("convol_bite"));
    if (v1) {
      const auto& post = durations.at("post_up");
      const double ratio = heavy_median(post) / std::max(light_median(post), 1.0);
      std::printf("heavy/light post_up: %.0fx (paper: 'roughly half negligible, half as "
                  "long as all the convolutions combined')\n",
                  ratio);
      std::printf("heavy post_up vs all four convol_bites of a slab: %.2fx\n\n",
                  heavy_median(post) / (4.0 * bite));
      if (ratio < kMinPostUpRatio) {
        std::fprintf(stderr, "FAIL: heavy/light post_up %.1fx is below %.0fx\n", ratio,
                     kMinPostUpRatio);
        return 1;
      }
    } else {
      const auto& update = durations.at("update_bite");
      std::printf("heavy update_bite vs convol_bite: %.2fx (the paper's v2 node timings "
                  "show them nearly equal)\n\n",
                  heavy_median(update) / bite);
    }
  }
  return 0;
}
