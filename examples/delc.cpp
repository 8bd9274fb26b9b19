// delc: the Delirium command-line compiler.
//
//   delc [options] <file.dlr>
//     --dump-ast      print the tree after macro expansion & optimization
//     --dump-dot      print the coordination graphs as Graphviz DOT
//     --no-opt        disable the optimizer
//     --timings       print per-pass times (Table 1 style)
//     --run           execute main() with the built-in operators
//     --executor E    which engine executes the program: "threaded"
//                     (the default for --run) or "sim" (virtual time);
//                     rewrites --run/--sim onto the chosen engine while
//                     keeping the parallelism degree. The
//                     DELIRIUM_EXECUTOR environment variable overrides
//                     the flag.
//     --workers N     worker threads for --run (default 4)
//     --affinity M    scheduling affinity for --run and --sim: "none",
//                     "operator" (last-worker memory per operator), or
//                     "data" (follow the biggest input block's home
//                     domain). Never changes values — placement only.
//     --topology SPEC memory topology for the locality cost model:
//                     preset[:key=value,...] with presets
//                     uma|numa2|numa4|cluster|flat and keys
//                     domains|intra|inter|migrate (docs/RUNTIME.md
//                     "Locality model")
//     --stats         with --run or --sim: print the run's RunStats
//                     counters (activations, CoW, scheduler, faults)
//     --inject-faults SPEC
//                     seeded deterministic fault injection for --run and
//                     --sim (grammar in src/runtime/fault.h), e.g.
//                     "incr:throw:every=7:seed=42,print:stall=1000000"
//     --retries N     retry faulting retry-eligible operators up to N
//                     times with exponential backoff
//     --watchdog MS   stall detector: cancel the run and dump stranded
//                     activations after MS milliseconds (wall time under
//                     --run, virtual time under --sim)
//     --instances N   run main() as N concurrent isolated instances over
//                     one shared worker pool (docs/ROBUSTNESS.md
//                     "Isolation model"); works with --run and --sim
//     --admission-cap N
//                     bound on concurrently admitted instances; excess
//                     submissions are shed deterministically with the
//                     structured "overload" outcome
//     --instance-budget SPEC
//                     per-instance ceilings "acts=<n>,ms=<m>" (either
//                     part optional); exceeding one cancels only that
//                     instance and reports "budget_exhausted"
//     --sim N         instead of --run, execute under virtual time on N
//                     simulated processors and report the makespan
//     --trace-events FILE
//                     with --run or --sim: record the full trace event
//                     stream (operator, scheduler, and fault events) and
//                     write it as Chrome tracing JSON (chrome://tracing,
//                     Perfetto)
//     --metrics FILE  with --run or --sim: write RunStats counters and
//                     per-operator duration histograms (forces event
//                     tracing on)
//     --metrics-format json|prom
//                     format for --metrics (default json)
//     --profile-out FILE
//                     with --run or --sim: aggregate the run's trace into
//                     per-operator cost histograms and write them as a
//                     versioned JSON calibration profile (forces event
//                     tracing on; docs/PROFILING.md)
//     --profile-in FILE
//                     load a calibration profile: measured costs replace
//                     unit heights in the critical-path scheduling hints
//                     (kill switch DELIRIUM_COST_HINTS=0) and default the
//                     per-instance time budget from the profile p99
//     --plan          replay the loaded profile through the virtual-time
//                     executor across a worker sweep (1..64) and report
//                     predicted makespan, the speedup curve, and the
//                     best/knee worker counts; requires --profile-in and
//                     honors --format text|json
//     --plan-target MS
//                     with --plan: also report the smallest swept worker
//                     count whose predicted makespan meets MS ms
//     --help          print this flag summary and exit
//     --lint          report the sole-consumer analysis: destructive uses
//                     of provably-shared blocks (guaranteed CoW copies)
//                     and provably-unique ones (clone elided)
//     --lint-json     the same findings as machine-readable JSON on stdout
//     --analyze       report the graph-facts table (src/analysis/facts.h):
//                     per-template purity, delivery, heights, constants,
//                     dead parameters, stranded locations, rewrite stats
//     --format F      output format for --analyze: "text" (default) or
//                     "json" (a superset of the --lint-json schema)
//     --verify-graphs run the structural graph verifier even in release
//                     builds; defects are reported as errors
//
// Only built-in operators are available here; applications embed their
// own operators through the library API instead (see the other examples).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/delirium.h"
#include "src/lang/macro.h"
#include "src/runtime/instance.h"
#include "src/runtime/sim.h"
#include "src/support/env.h"
#include "src/support/topology.h"
#include "src/analysis/facts.h"
#include "src/tools/analysis_json.h"
#include "src/tools/metrics.h"
#include "src/tools/profile.h"
#include "src/tools/report.h"
#include "src/tools/trace.h"

namespace {

// The flag list below is the contract checked by tools_test against
// docs/CLI.md: every flag documented there must appear here and vice
// versa.
void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: delc [options] <file.dlr>\n"
      "  --dump-ast                print the tree after macro expansion & optimization\n"
      "  --dump-dot                print the coordination graphs as Graphviz DOT\n"
      "  --no-opt                  disable the optimizer\n"
      "  --timings                 print per-pass compile times\n"
      "  --lint                    report the sole-consumer analysis findings\n"
      "  --lint-json               the same findings as JSON on stdout\n"
      "  --analyze                 report the graph-facts table (purity, heights,\n"
      "                            constants, dead params, stranded locations)\n"
      "  --format text|json        output format for --analyze (default text)\n"
      "  --verify-graphs           run the structural graph verifier\n"
      "  --run                     execute main() with the built-in operators\n"
      "  --executor threaded|sim   which engine executes the program (--executor=E\n"
      "                            also accepted; DELIRIUM_EXECUTOR overrides)\n"
      "  --workers N               worker threads for --run (default 4)\n"
      "  --affinity none|operator|data\n"
      "                            scheduling affinity (--affinity=M also accepted;\n"
      "                            DELIRIUM_AFFINITY overrides)\n"
      "  --topology SPEC           memory topology preset[:key=value,...] — presets\n"
      "                            uma|numa2|numa4|cluster|flat, keys\n"
      "                            domains|intra|inter|migrate (--topology=SPEC also\n"
      "                            accepted; DELIRIUM_TOPOLOGY overrides)\n"
      "  --sim N                   execute under virtual time on N simulated processors\n"
      "  --stats                   print the run's RunStats counters\n"
      "  --inject-faults SPEC      deterministic fault injection (src/runtime/fault.h)\n"
      "  --retries N               retry faulting retry-eligible operators up to N times\n"
      "  --watchdog MS             cancel a stalled run after MS milliseconds\n"
      "  --instances N             run main() as N concurrent isolated instances\n"
      "  --admission-cap N         bound on concurrently admitted instances; excess\n"
      "                            submissions are shed with outcome \"overload\"\n"
      "  --instance-budget acts=<n>,ms=<m>\n"
      "                            per-instance ceilings (either part optional);\n"
      "                            exceeding one cancels only that instance\n"
      "  --trace-events FILE       record and write the full trace event stream\n"
      "                            (operator, scheduler, and fault events)\n"
      "  --metrics FILE            write RunStats counters and per-operator histograms\n"
      "                            (forces event tracing)\n"
      "  --metrics-format json|prom\n"
      "                            format for --metrics (default json)\n"
      "  --profile-out FILE        write the run's per-operator cost histograms as a\n"
      "                            JSON calibration profile (forces event tracing)\n"
      "  --profile-in FILE         load a calibration profile: measured costs sharpen\n"
      "                            the scheduling hints and default instance budgets\n"
      "  --plan                    predict makespan/speedup across a 1..64 virtual\n"
      "                            worker sweep from the loaded profile (--profile-in)\n"
      "  --plan-target MS          with --plan: report the smallest worker count\n"
      "                            whose predicted makespan meets MS milliseconds\n"
      "  --help                    print this flag summary and exit\n"
      "environment: DELIRIUM_EXECUTOR, DELIRIUM_INJECT_FAULTS, DELIRIUM_RETRIES,\n"
      "             DELIRIUM_TRACE, DELIRIUM_TRACE_CAPACITY, DELIRIUM_GRAPH_FACTS,\n"
      "             DELIRIUM_FACTS_FOLD, DELIRIUM_FACTS_DEADPARAM,\n"
      "             DELIRIUM_FACTS_FUSE, DELIRIUM_FACTS_TUPLES,\n"
      "             DELIRIUM_FACTS_STRAND, DELIRIUM_FACTS_SOLE,\n"
      "             DELIRIUM_SCHED_HINTS, DELIRIUM_COST_HINTS, DELIRIUM_AFFINITY,\n"
      "             DELIRIUM_TOPOLOGY, DELIRIUM_LOCALITY (see docs/CLI.md)\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string trace_events_path;
  std::string metrics_path;
  std::string metrics_format = "json";
  std::string profile_out_path;
  std::string profile_in_path;
  bool plan = false;
  long plan_target_ms = 0;
  std::string fault_spec;
  std::string executor;  // "", "threaded", or "sim"
  bool dump_ast = false, dump_dot = false, no_opt = false, timings = false, run = false;
  bool lint = false, lint_json = false, verify_graphs = false, stats = false;
  bool analyze = false;
  std::string analyze_format = "text";
  int workers = 4;
  int sim_procs = 0;
  int retries = 0;
  long watchdog_ms = 0;
  int instances = 0;
  long admission_cap = 0;
  delirium::InstanceBudget instance_budget;
  std::string affinity;       // "", "none", "operator", or "data"
  std::string topology_spec;  // "" = the config default (uma)
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump-ast") dump_ast = true;
    else if (arg == "--dump-dot") dump_dot = true;
    else if (arg == "--no-opt") no_opt = true;
    else if (arg == "--timings") timings = true;
    else if (arg == "--run") run = true;
    else if (arg == "--lint") lint = true;
    else if (arg == "--lint-json") lint_json = true;
    else if (arg == "--analyze") analyze = true;
    else if (arg == "--format" && i + 1 < argc) {
      analyze_format = argv[++i];
      if (analyze_format != "text" && analyze_format != "json") return usage();
    }
    else if (arg == "--verify-graphs") verify_graphs = true;
    else if (arg == "--stats") stats = true;
    else if (arg == "--executor" && i + 1 < argc) executor = argv[++i];
    else if (arg.rfind("--executor=", 0) == 0) executor = arg.substr(sizeof("--executor=") - 1);
    else if (arg == "--workers" && i + 1 < argc) workers = std::atoi(argv[++i]);
    else if (arg == "--affinity" && i + 1 < argc) affinity = argv[++i];
    else if (arg.rfind("--affinity=", 0) == 0) affinity = arg.substr(sizeof("--affinity=") - 1);
    else if (arg == "--topology" && i + 1 < argc) topology_spec = argv[++i];
    else if (arg.rfind("--topology=", 0) == 0) topology_spec = arg.substr(sizeof("--topology=") - 1);
    else if (arg == "--help") {
      print_usage(stdout);
      return 0;
    }
    else if (arg == "--sim" && i + 1 < argc) sim_procs = std::atoi(argv[++i]);
    else if (arg == "--trace-events" && i + 1 < argc) trace_events_path = argv[++i];
    else if (arg == "--metrics" && i + 1 < argc) metrics_path = argv[++i];
    else if (arg == "--metrics-format" && i + 1 < argc) {
      metrics_format = argv[++i];
      if (metrics_format != "json" && metrics_format != "prom") return usage();
    }
    else if (arg == "--profile-out" && i + 1 < argc) profile_out_path = argv[++i];
    else if (arg == "--profile-in" && i + 1 < argc) profile_in_path = argv[++i];
    else if (arg == "--plan") plan = true;
    else if (arg == "--plan-target" && i + 1 < argc) plan_target_ms = std::atol(argv[++i]);
    else if (arg == "--inject-faults" && i + 1 < argc) fault_spec = argv[++i];
    else if (arg == "--retries" && i + 1 < argc) retries = std::atoi(argv[++i]);
    else if (arg == "--watchdog" && i + 1 < argc) watchdog_ms = std::atol(argv[++i]);
    else if (arg == "--instances" && i + 1 < argc) instances = std::atoi(argv[++i]);
    else if (arg == "--admission-cap" && i + 1 < argc) admission_cap = std::atol(argv[++i]);
    else if (arg == "--instance-budget" && i + 1 < argc) {
      // "acts=<n>,ms=<m>" — either part optional, unknown keys rejected.
      std::string spec = argv[++i];
      size_t pos = 0;
      while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string part = spec.substr(pos, comma - pos);
        const size_t eq = part.find('=');
        const std::string key = eq == std::string::npos ? part : part.substr(0, eq);
        const long v = eq == std::string::npos ? -1 : std::atol(part.c_str() + eq + 1);
        if (key == "acts" && v > 0) {
          instance_budget.max_activations = static_cast<uint64_t>(v);
        } else if (key == "ms" && v > 0) {
          instance_budget.time_budget_ns = v * 1000000;
        } else {
          std::fprintf(stderr, "delc: bad --instance-budget part '%s' (acts=<n>,ms=<m>)\n",
                       part.c_str());
          return usage();
        }
        pos = comma + 1;
      }
    }
    else if (!arg.empty() && arg[0] == '-') return usage();
    else path = arg;
  }
  if (path.empty()) return usage();

  // DELIRIUM_EXECUTOR overrides the --executor flag, mirroring how the
  // runtime's own env knobs (DELIRIUM_AFFINITY, ...) win over config.
  // The shared parser rejects bad spellings naming the variable and the
  // offending value instead of silently ignoring them.
  try {
    if (delirium::env_raw("DELIRIUM_EXECUTOR").has_value()) {
      executor = delirium::env_choice("DELIRIUM_EXECUTOR", {"threaded", "sim"}, 0) == 0
                     ? "threaded"
                     : "sim";
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "delc: %s\n", e.what());
    return 2;
  }
  if (!executor.empty() && executor != "threaded" && executor != "sim") {
    std::fprintf(stderr, "delc: unknown executor '%s' (threaded|sim)\n", executor.c_str());
    return usage();
  }
  // The choice rewrites --run/--sim onto the selected engine, keeping
  // the requested parallelism degree.
  if (executor == "sim" && run) {
    if (sim_procs <= 0) sim_procs = workers;
    run = false;
  } else if (executor == "threaded" && sim_procs > 0) {
    workers = sim_procs;
    sim_procs = 0;
    run = true;
  }

  // Locality knobs, shared by both executors through the ExecConfig base
  // slice. The flags only *set* the config; DELIRIUM_AFFINITY /
  // DELIRIUM_TOPOLOGY still win inside apply_exec_env_overrides, like
  // every other runtime env knob.
  if (!affinity.empty() && affinity != "none" && affinity != "operator" &&
      affinity != "data") {
    std::fprintf(stderr, "delc: unknown affinity '%s' (none|operator|data)\n",
                 affinity.c_str());
    return usage();
  }
  delirium::MemoryTopology topology;
  bool have_topology = false;
  if (!topology_spec.empty()) {
    try {
      topology = delirium::parse_topology(topology_spec, "--topology");
      have_topology = true;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "delc: %s\n", e.what());
      return 2;
    }
  }
  const auto apply_locality_flags = [&](delirium::ExecConfig& config) {
    if (affinity == "none") config.affinity = delirium::AffinityMode::kNone;
    else if (affinity == "operator") config.affinity = delirium::AffinityMode::kOperator;
    else if (affinity == "data") config.affinity = delirium::AffinityMode::kData;
    if (have_topology) config.topology = topology;
  };

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "delc: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  delirium::OperatorRegistry registry;
  delirium::register_builtin_operators(registry);
  if (!fault_spec.empty()) {
    try {
      registry.set_fault_plan(
          std::make_shared<const delirium::FaultPlan>(delirium::FaultPlan::parse(fault_spec)));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "delc: %s\n", e.what());
      return 2;
    }
  }

  delirium::CompileOptions options;
  options.optimize = !no_opt;
  options.verify = verify_graphs;

  if (dump_ast) {
    // Re-run the front half to show the tree (the compile result below
    // only carries graphs).
    delirium::SourceFile file(path, buffer.str());
    delirium::DiagnosticEngine diags;
    delirium::AstContext ctx;
    delirium::Program program = delirium::parse_source(file, ctx, diags);
    delirium::expand_macros(program, ctx, diags);
    if (diags.has_errors()) {
      diags.print(std::cerr, file);
      return 1;
    }
    if (!no_opt) {
      const auto analysis = delirium::analyze_environment(program, registry, diags);
      delirium::optimize_program(program, ctx, registry, analysis);
    }
    delirium::print_program(std::cout, program);
  }

  delirium::CompileResult result =
      delirium::compile_source(path, buffer.str(), registry, options);
  if (!result.ok) {
    std::fprintf(stderr, "%s", result.diagnostics.c_str());
    return 1;
  }
  std::fprintf(stderr, "delc: %zu templates, %zu graph nodes, %zu AST nodes\n",
               result.program.templates.size(), result.program.total_nodes(),
               result.ast_nodes);
  if (verify_graphs) {
    std::fprintf(stderr, "delc: graph verifier: all templates well-formed\n");
  }

  if (analyze) {
    delirium::SourceFile file(path, buffer.str());
    const std::string report = analyze_format == "json"
                                   ? delirium::tools::render_analysis_json(result, file)
                                   : delirium::tools::render_analysis_text(result, file);
    std::fputs(report.c_str(), stdout);
  }

  if (lint || lint_json) {
    delirium::SourceFile file(path, buffer.str());
    if (lint_json) {
      std::fputs(
          delirium::tools::render_lint_json(result.lint, result.sole_consumer, file).c_str(),
          stdout);
    }
    if (lint) {
      delirium::DiagnosticEngine lint_diags;
      for (const delirium::LintFinding& f : result.lint) {
        lint_diags.add(f.cls == delirium::ConsumeClass::kShared ? delirium::Severity::kWarning
                                                                : delirium::Severity::kNote,
                       f.range, f.message);
      }
      lint_diags.print(std::cout, file);
      const auto& s = result.sole_consumer;
      std::printf("delint: %zu destructive edge(s): %zu unique, %zu shared, %zu unknown\n",
                  s.destructive_edges, s.unique_edges, s.shared_edges, s.unknown_edges);
    }
  }

  if (timings) {
    const auto& t = result.timings;
    std::printf("pass timings (ms):\n");
    std::printf("  %-18s %8.2f\n", "Lexing", t.lex_ms);
    std::printf("  %-18s %8.2f\n", "Parsing", t.parse_ms);
    std::printf("  %-18s %8.2f\n", "Macro Expansion", t.macro_ms);
    std::printf("  %-18s %8.2f\n", "Env Analysis", t.env_ms);
    std::printf("  %-18s %8.2f\n", "Optimization", t.opt_ms);
    std::printf("  %-18s %8.2f\n", "Graph Conversion", t.graph_ms);
    std::printf("  %-18s %8.2f\n", "Total", t.total_ms());
  }

  if (dump_dot) {
    delirium::write_program_dot(std::cout, result.program);
  }

  // Feedback scheduling (docs/PROFILING.md): a loaded calibration
  // profile re-marks the critical path with measured costs, so the
  // long-pole operators launch first in both executors.
  delirium::tools::CostProfile profile_in;
  bool have_profile = false;
  if (!profile_in_path.empty()) {
    try {
      profile_in = delirium::tools::load_cost_profile_file(profile_in_path);
      have_profile = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "delc: %s\n", e.what());
      return 2;
    }
    if (result.has_facts) {
      const size_t marked = delirium::apply_sched_hints(
          result.program, result.facts, delirium::tools::to_cost_model(profile_in));
      std::fprintf(stderr, "delc: cost hints: %zu node(s) marked from %s\n", marked,
                   profile_in_path.c_str());
    }
  }

  // Capacity planning: replay the profile through the virtual-time
  // executor across the worker sweep. Byte-deterministic for a given
  // (program, profile) — the --workers/--executor flags do
  // not enter the simulation.
  if (plan) {
    if (!have_profile) {
      std::fprintf(stderr, "delc: --plan requires --profile-in FILE\n");
      return usage();
    }
    try {
      const delirium::tools::CapacityPlan p = delirium::tools::plan_capacity(
          result.program, registry, profile_in, delirium::tools::default_plan_workers(),
          plan_target_ms * 1000000);
      std::fputs((analyze_format == "json" ? delirium::tools::render_plan_json(p, path)
                                           : delirium::tools::render_plan_text(p, path))
                     .c_str(),
                 stdout);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "delc: plan failed: %s\n", e.what());
      return 1;
    }
  }

  // A loaded profile also defaults the per-instance time budget for
  // admission control: an upper envelope of one instance's work
  // (headroomed p99 sum, see budget_from_profile), scaled by the
  // instance count since co-tenant instances share one machine.
  if (have_profile && instances > 0 && instance_budget.time_budget_ns == 0) {
    const int64_t budget =
        delirium::tools::budget_from_profile(profile_in) * instances;
    if (budget > 0) {
      instance_budget.time_budget_ns = budget;
      std::fprintf(stderr, "delc: instance time budget defaulted to %lld ns (profile p99)\n",
                   static_cast<long long>(budget));
    }
  }

  // Multi-instance mode (docs/ROBUSTNESS.md "Isolation model"): submit
  // main() N times to one shared machine and report per-instance
  // outcomes. Exit 1 only when *no* instance completed — faults, budget
  // kills, and shed requests are contained, structured outcomes.
  // The machine publishes an instance session's counters and trace only
  // when its InstanceManager closes; these keep the manager's own
  // tallies for the report written after that.
  std::optional<delirium::InstanceCounters> session_counters;
  std::vector<int64_t> session_latencies;
  auto run_instance_mode = [&](delirium::InstanceManager& mgr) -> int {
    for (int k = 0; k < instances; ++k) {
      delirium::InstanceRequest req;
      req.program = &result.program;
      req.budget = instance_budget;
      mgr.submit(req);
    }
    const std::vector<delirium::InstanceResult> outcomes = mgr.wait_all();
    for (const delirium::InstanceResult& r : outcomes) {
      if (r.outcome == delirium::InstanceOutcome::kCompleted) {
        std::printf("result: %s\n", r.value.to_display_string().c_str());
        break;
      }
    }
    for (const delirium::InstanceResult& r : outcomes) {
      if (r.outcome == delirium::InstanceOutcome::kCompleted) continue;
      std::fprintf(stderr, "delc: instance %llu %s: %s\n",
                   static_cast<unsigned long long>(r.id),
                   delirium::instance_outcome_name(r.outcome),
                   r.error.substr(0, r.error.find('\n')).c_str());
    }
    const delirium::InstanceCounters c = mgr.counters();
    std::printf(
        "instances: %d submitted, %llu completed, %llu faulted, %llu budget-killed, "
        "%llu shed\n",
        instances, static_cast<unsigned long long>(c.completed),
        static_cast<unsigned long long>(c.faulted),
        static_cast<unsigned long long>(c.budget_killed),
        static_cast<unsigned long long>(c.shed));
    session_counters = c;
    session_latencies = mgr.latencies();
    return c.completed > 0 ? 0 : 1;
  };
  delirium::InstanceManagerConfig imconfig;
  imconfig.admission_capacity = admission_cap > 0 ? static_cast<size_t>(admission_cap) : 0;
  imconfig.default_budget = instance_budget;
  imconfig.track_busy_workers = instance_budget.time_budget_ns > 0;

  // Every per-operator output reads the run's trace event stream, plus
  // the attempts a full ring overwrote (Runtime::trace_overwritten_slices),
  // so counts and profiles stay exact; only the timeline is a window.
  const bool trace_outputs =
      !trace_events_path.empty() || !profile_out_path.empty() || !metrics_path.empty();
  auto write_trace_outputs = [&](const delirium::RunStats& run_stats,
                                 const std::vector<delirium::TraceEvent>& events,
                                 const std::vector<delirium::LogHistogram>& overwritten,
                                 uint64_t lost) {
    if (!trace_events_path.empty()) {
      if (lost > 0) {
        std::fprintf(stderr,
                     "delc: warning: full trace rings overwrote %llu events, so the "
                     "--trace-events timeline holds only each worker's newest; raise "
                     "DELIRIUM_TRACE_CAPACITY (events per worker)\n",
                     static_cast<unsigned long long>(lost));
      }
      if (delirium::tools::write_trace_events_file(trace_events_path, events, registry)) {
        std::fprintf(stderr, "delc: wrote trace events to %s\n", trace_events_path.c_str());
      }
    }
    if (!profile_out_path.empty()) {
      delirium::tools::CostProfile profile =
          delirium::tools::profile_from_trace(events, registry);
      delirium::tools::add_named(profile.operators, overwritten, registry);
      if (delirium::tools::write_cost_profile_file(profile_out_path, profile)) {
        std::fprintf(stderr, "delc: wrote cost profile to %s\n", profile_out_path.c_str());
      }
    }
    if (!metrics_path.empty()) {
      delirium::tools::MetricsRegistry metrics;
      metrics.observe_run(run_stats, events, registry, overwritten);
      if (session_counters) metrics.observe_instances(*session_counters, session_latencies);
      if (metrics.write_file(metrics_path, metrics_format)) {
        std::fprintf(stderr, "delc: wrote metrics to %s\n", metrics_path.c_str());
      }
    }
  };
  // An instance session's report: the machine's counters for the whole
  // session with the manager's instance tallies (the machine never sees
  // a shed request).
  auto report_session = [&](delirium::RunStats session,
                            const std::vector<delirium::TraceEvent>& events,
                            const std::vector<delirium::LogHistogram>& overwritten,
                            uint64_t lost) {
    if (session_counters) {
      session.instances_admitted = session_counters->admitted;
      session.instances_completed = session_counters->completed;
      session.instances_faulted = session_counters->faulted;
      session.instances_budget_killed = session_counters->budget_killed;
      session.instances_shed = session_counters->shed;
    }
    if (stats) delirium::tools::print_run_stats(std::cout, session);
    write_trace_outputs(session, events, overwritten, lost);
  };

  if (sim_procs > 0) {
    delirium::SimConfig config;
    config.num_procs = sim_procs;
    config.enable_tracing = trace_outputs;
    config.max_retries = retries;
    config.watchdog_budget_ns = watchdog_ms * 1000000;
    apply_locality_flags(config);
    try {
      delirium::SimRuntime sim(registry, config);
      if (instances > 0) {
        int rc = 0;
        {
          delirium::InstanceManager mgr(sim, imconfig);
          rc = run_instance_mode(mgr);
        }
        report_session(sim.last_stats(), sim.trace_events(), {}, 0);
        return rc;
      }
      const delirium::SimResult r = sim.run(result.program);
      std::printf("result: %s\n", r.result.to_display_string().c_str());
      std::printf("virtual makespan on %d processors: %.3f ms (busy %.3f ms)\n", sim_procs,
                  static_cast<double>(r.makespan) / 1e6,
                  static_cast<double>(r.total_busy) / 1e6);
      if (stats) delirium::tools::print_run_stats(std::cout, r.stats);
      write_trace_outputs(r.stats, r.trace_events, {}, 0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "delc: run failed: %s\n", e.what());
      return 1;
    }
  } else if (run) {
    delirium::RuntimeConfig config;
    config.num_workers = workers;
    config.enable_tracing = trace_outputs;
    config.max_retries = retries;
    config.watchdog_budget_ms = watchdog_ms;
    apply_locality_flags(config);
    // Construction can throw (a malformed DELIRIUM_* knob fails loudly
    // with an EnvError); report it like any other failed run instead of
    // letting it terminate the process.
    std::unique_ptr<delirium::Runtime> runtime;
    try {
      runtime = std::make_unique<delirium::Runtime>(registry, config);
      if (instances > 0) {
        int rc = 0;
        {
          delirium::InstanceManager mgr(*runtime, imconfig);
          rc = run_instance_mode(mgr);
        }
        report_session(runtime->last_stats(), runtime->trace_events(),
                       runtime->trace_overwritten_slices(),
                       runtime->trace_events_overwritten());
        return rc;
      }
      const delirium::Value value = runtime->run(result.program);
      std::printf("result: %s\n", value.to_display_string().c_str());
      write_trace_outputs(runtime->last_stats(), runtime->trace_events(),
                          runtime->trace_overwritten_slices(),
                          runtime->trace_events_overwritten());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "delc: run failed: %s\n", e.what());
      if (stats && runtime) delirium::tools::print_run_stats(std::cout, runtime->last_stats());
      return 1;
    }
    if (stats) delirium::tools::print_run_stats(std::cout, runtime->last_stats());
  }
  return 0;
}
