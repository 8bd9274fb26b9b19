// Ablation: the graph-level optimizer and the facts-driven rewrites
// (§6.1's "unnecessary nodes in the graph translate into extra overhead
// at run-time"). Two sections:
//
//  1. Static ablation over a generated program — node / slot / template
//     counts and virtual makespan with and without the pass, with and
//     without AST optimization (the production pipeline).
//  2. A/A-disciplined wall-clock comparison on tiny-op fan-out
//     workloads whose per-iteration bodies are dominated by
//     constant-returning pure calls — the shape the facts engine's
//     interprocedural folding collapses. Protocol: two identical
//     facts-optimized programs interleaved min-of-N give the A/A noise
//     floor (FAIL outside ±5%), and the unoptimized program must come out >= the gate
//     ratio slower (FAIL below it — the rewrite must pay for itself).
//
// `--quick` drops reps/matrix for CI; a JSON path as the last argument
// writes the results (BENCH_graph_facts.json is a recorded run).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/dcc/program_gen.h"
#include "src/delirium.h"
#include "src/runtime/sim.h"
#include "src/tools/report.h"

using namespace delirium;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Tiny-op fan-out: every iteration fans out into constant-returning
/// pure calls of tiny operators. Unfolded, each call expands an
/// activation of cheap nodes; folded, the whole fan collapses to one
/// literal per iteration and only the loop spine remains.
const char* kCallFanSource = R"(
k1() add(mul(3, 4), sub(9, 2))
k2() mul(add(2, 3), add(1, 4))
k3() add(k1(), mul(k2(), 2))
main()
  iterate {
    i = 0, incr(i)
    acc = 0, add(acc, add(k3(), add(k1(), k2())))
  } while is_not_equal(i, 20000), result acc
)";

/// Tiny-op constant chains: the same loop, but the per-iteration waste
/// is a deep chain of constant scalar operators (no calls) — the
/// intraprocedural half of the folding.
const char* kConstChainSource = R"(
main()
  iterate {
    i = 0, incr(i)
    acc = 0, add(acc, add(mul(3, 4), add(mul(2, 5), add(sub(9, 2), mul(1, 6)))))
  } while is_not_equal(i, 20000), result acc
)";

struct Point {
  const char* workload;
  int workers;
  double opt_a_ms;
  double opt_b_ms;
  double off_ms;
  uint64_t opt_nodes;  // RunStats.nodes_executed, facts-optimized
  uint64_t off_nodes;  // RunStats.nodes_executed, unoptimized
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      json_path = argv[i];
    }
  }
  const int reps = quick ? 5 : 15;

  OperatorRegistry registry;
  register_builtin_operators(registry);

  // -- Section 1: static ablation over a generated program ------------------
  {
    dcc::GenParams gen;
    gen.num_functions = 200;
    gen.body_size = 40;
    gen.seed = 17;
    const std::string source = dcc::generate_program(gen);

    std::printf("Graph-level optimization ablation (generated program, %zu lines)\n\n",
                dcc::count_lines(source));

    tools::Table table({"pipeline", "graph nodes", "value slots", "templates",
                        "virtual makespan (2 procs)"});
    for (const bool ast_opt : {false, true}) {
      CompileOptions options;
      options.optimize = ast_opt;
      options.graph_opt = false;
      CompiledProgram unpruned = compile_or_throw(source, registry, options);
      CompiledProgram pruned = compile_or_throw(source, registry, options);
      optimize_graphs(pruned, registry);

      auto slots = [](const CompiledProgram& p) {
        size_t total = 0;
        for (const auto& t : p.templates) total += t->value_slots;
        return total;
      };
      auto makespan = [&registry](const CompiledProgram& p) {
        SimRuntime sim(registry, {.num_procs = 2});
        return static_cast<double>(sim.run(p).makespan) / 1e6;
      };
      const std::string label = ast_opt ? "AST opt" : "no AST opt";
      table.add_row({label + ", raw graphs", std::to_string(unpruned.total_nodes()),
                     std::to_string(slots(unpruned)),
                     std::to_string(unpruned.templates.size()),
                     tools::Table::ms(makespan(unpruned))});
      table.add_row({label + ", + graph opt", std::to_string(pruned.total_nodes()),
                     std::to_string(slots(pruned)),
                     std::to_string(pruned.templates.size()),
                     tools::Table::ms(makespan(pruned))});
    }
    table.print(std::cout);
    std::printf("\n");
  }

  // -- Section 2: A/A-disciplined wall-clock before/after -------------------
  CompileOptions no_opt;
  no_opt.optimize = false;  // isolate the graph pass: AST pipeline off

  std::vector<Point> points;
  for (const auto& [name, source] :
       std::vector<std::pair<const char*, const char*>>{{"call-fan", kCallFanSource},
                                                        {"const-chain", kConstChainSource}}) {
    CompiledProgram opt_program = compile_or_throw(source, registry, no_opt);
    const GraphOptStats stats = optimize_graphs(opt_program, registry);
    const CompiledProgram off_program = compile_or_throw(source, registry, no_opt);
    std::printf("%s: folded %zu const(s), removed %zu node(s), %zu -> %zu graph nodes\n",
                name, stats.consts_folded, stats.dead_nodes_removed,
                off_program.total_nodes(), opt_program.total_nodes());

    for (const int workers : quick ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8}) {
      RuntimeConfig config;
      config.num_workers = workers;
      Runtime opt_a(registry, config);
      Runtime opt_b(registry, config);
      Runtime off(registry, config);

      // Interleaved minimum-of-N: overhead is a lower-bound quantity,
      // and alternating the three runtimes cancels slow drift.
      auto timed = [&](Runtime& runtime, const CompiledProgram& program) {
        const double start = now_ms();
        runtime.run(program);
        return now_ms() - start;
      };
      timed(opt_a, opt_program);  // warm up outside the clock
      timed(opt_b, opt_program);
      timed(off, off_program);
      Point p{name, workers, 1e30, 1e30, 1e30, 0, 0};
      for (int rep = 0; rep < reps; ++rep) {
        p.opt_a_ms = std::min(p.opt_a_ms, timed(opt_a, opt_program));
        p.opt_b_ms = std::min(p.opt_b_ms, timed(opt_b, opt_program));
        p.off_ms = std::min(p.off_ms, timed(off, off_program));
      }
      p.opt_nodes = opt_a.last_stats().nodes_executed;
      p.off_nodes = off.last_stats().nodes_executed;
      points.push_back(p);
    }
  }

  tools::Table table({"workload", "workers", "facts A (ms)", "facts B (ms)", "off (ms)",
                      "B/A", "off/facts", "nodes opt", "nodes off"});
  double aa_log_sum = 0;
  double off_log_sum = 0;
  for (const Point& p : points) {
    const double aa_ratio = p.opt_b_ms / p.opt_a_ms;
    const double off_ratio = p.off_ms / p.opt_a_ms;
    aa_log_sum += std::log(aa_ratio);
    off_log_sum += std::log(off_ratio);
    table.add_row({p.workload, std::to_string(p.workers), tools::Table::ms(p.opt_a_ms, 2),
                   tools::Table::ms(p.opt_b_ms, 2), tools::Table::ms(p.off_ms, 2),
                   tools::Table::ratio(aa_ratio), tools::Table::ratio(off_ratio),
                   std::to_string(p.opt_nodes), std::to_string(p.off_nodes)});
  }
  const double count = static_cast<double>(points.size());
  const double aa_geomean = std::exp(aa_log_sum / count);
  const double off_geomean = std::exp(off_log_sum / count);
  // --quick runs one worker count under CI sanitizers, where a single
  // A/A point is noisy and instrumentation flattens the fold win; the
  // gates there are smoke bounds. The full run holds the real contract:
  // A/A within ±5% and the fold worth >= 1.2x on these workloads.
  const double tolerance = quick ? 0.15 : 0.05;
  const double speedup_gate = quick ? 1.05 : 1.2;
  const bool aa_ok = aa_geomean >= 1.0 - tolerance && aa_geomean <= 1.0 + tolerance;
  const bool speedup_ok = off_geomean >= speedup_gate;
  std::printf("\nfacts-driven folding (tiny-op fan-out, interleaved min of %d):\n", reps);
  table.print(std::cout);
  std::printf("facts A/A geomean ratio: %.3f\n", aa_geomean);
  std::printf("unoptimized / facts-optimized geomean ratio: %.3f\n", off_geomean);

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"bench_graph_opt\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"aa_geomean\": " << tools::Table::ms(aa_geomean, 3) << ",\n"
       << "  \"off_over_facts_geomean\": " << tools::Table::ms(off_geomean, 3) << ",\n"
       << "  \"interleaved_min_of_" << reps << "\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json << "    {\"workload\": \"" << p.workload << "\", \"workers\": " << p.workers
         << ", \"facts_a_ms\": " << tools::Table::ms(p.opt_a_ms, 2)
         << ", \"facts_b_ms\": " << tools::Table::ms(p.opt_b_ms, 2)
         << ", \"off_ms\": " << tools::Table::ms(p.off_ms, 2)
         << ", \"aa_ratio\": " << tools::Table::ms(p.opt_b_ms / p.opt_a_ms, 3)
         << ", \"off_ratio\": " << tools::Table::ms(p.off_ms / p.opt_a_ms, 3)
         << ", \"nodes_executed_opt\": " << p.opt_nodes
         << ", \"nodes_executed_off\": " << p.off_nodes << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fputs(json.str().c_str(), stdout);
  }

  if (!aa_ok) {
    std::fprintf(stderr,
                 "FAIL: identical facts-optimized runtimes differ by more than %.0f%% — "
                 "the measurement is unstable\n",
                 tolerance * 100);
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: facts-driven folding below the gate on its home workload "
                 "(unopt/opt %.3f < %.2f)\n",
                 off_geomean, speedup_gate);
    return 1;
  }
  std::printf("A/A within the noise bound and the fold clears the %.2fx gate\n",
              speedup_gate);
  return 0;
}
