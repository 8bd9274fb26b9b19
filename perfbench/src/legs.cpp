#include "legs.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "ladder.h"
#include "spans.h"
#include "stats.h"
#include "src/support/rng.h"
#include "src/tools/profile.h"
#include "src/tools/trace.h"
#include "workloads.h"

namespace delbench {

using namespace delirium;

namespace {

constexpr int kSetups = 5;        // set-up is repeated; setup_s is the median
constexpr int kWorkers = 4;       // the parallel leg (= nproc of the reference host)
constexpr int kServeWorkers = 3;  // open loop; the generator thread gets the 4th core
constexpr int kSimProcs = 4;
constexpr size_t kTraceCapacity = size_t{1} << 19;  // per-worker ring, traced runs only
constexpr uint64_t kOpenBase = 1'000'000;  // open-loop request indices start here
constexpr size_t kOpenRequests = 3000;  // the traced open loop; a p99 needs 1000
constexpr size_t kMinRounds = 9;
constexpr double kFastEnd = 0.02;  // the percentile every end-to-end timing reports
constexpr double kCompileBatchMs = 10.0;

const double kInf = std::numeric_limits<double>::infinity();

RuntimeConfig runtime_config(int workers, bool tracing = false) {
  RuntimeConfig config;
  config.num_workers = workers;
  config.enable_tracing = tracing;
  if (tracing) config.trace_capacity = kTraceCapacity;
  return config;
}

/// A set-up workload with the runtimes its legs use. Members are
/// destroyed in reverse order, so every runtime goes before the
/// registries it references.
struct Rig {
  std::unique_ptr<Workload> w;
  std::unique_ptr<Runtime> rt1, rt4, burst_rt;
};

/// Submit the workload's burst to a fresh manager session on `rt` and
/// collect it with wait_all; returns the session's milliseconds.
double burst_once(Workload& w, Runtime& rt, Report& rep) {
  std::vector<InstanceRequest> reqs;
  for (uint64_t i = 0; i < w.burst_size(); ++i) reqs.push_back(w.request(i));
  std::vector<InstanceResult> results;
  const int64_t t0 = steady_ns();
  {
    Span s("instance.burst");
    InstanceManager mgr(rt);
    for (InstanceRequest& r : reqs) mgr.submit(std::move(r));
    results = mgr.wait_all();
  }
  const double ms = static_cast<double>(steady_ns() - t0) / 1e6;
  for (uint64_t i = 0; i < results.size(); ++i) {
    rep.check(w.check_instance(i, results[i]), "burst request " + std::to_string(i));
  }
  return ms;
}

double compile_once(Workload& w, Report& rep, bool first) {
  const int64_t t0 = steady_ns();
  CompileResult r = [&] {
    Span s("core.compile_source");
    return compile_source("<bench>", w.compile_text(), w.compile_registry(),
                          w.compile_options());
  }();
  const double ms = static_cast<double>(steady_ns() - t0) / 1e6;
  rep.check(w.check_compile(r, first), "compile");
  return ms;
}

/// One complete set-up: workload (registries, programs, cold compile),
/// runtimes, and one warm-up call of every timed operation. Warm-up
/// outputs go to a scratch report: the oracles are not ready yet.
std::unique_ptr<Rig> set_up(const Args& args, double* seconds) {
  const int64_t t0 = steady_ns();
  auto rig = std::make_unique<Rig>();
  rig->w = make_workload(args.workload, args.seed);
  Workload& w = *rig->w;
  rig->rt1 = std::make_unique<Runtime>(w.run_registry(), runtime_config(1));
  rig->rt4 = std::make_unique<Runtime>(w.run_registry(), runtime_config(kWorkers));
  rig->burst_rt = std::make_unique<Runtime>(w.serve_registry(), runtime_config(kWorkers));
  Report scratch(/*quiet=*/true);
  compile_once(w, scratch, false);
  w.run_once(*rig->rt1, scratch);
  w.run_once(*rig->rt4, scratch);
  burst_once(w, *rig->burst_rt, scratch);
  *seconds = static_cast<double>(steady_ns() - t0) / 1e9;
  return rig;
}

SimConfig sim_config(const FixedCosts& costs) {
  SimConfig config;
  config.num_procs = kSimProcs;
  config.fixed_costs = &costs.per_op;
  config.fixed_cost_default_ns = costs.default_ns;
  return config;
}

// -- open loop ---------------------------------------------------------------

struct OpenLoop {
  std::vector<double> latency_ms;      // due -> finalize; +inf for a wrong output
  std::vector<double> own_latency_ms;  // submit -> finalize, as the manager reports it
  std::vector<double> late_ms;         // how late the generator sent each request
  std::vector<double> submit_us, wait_us;
  InstanceCounters counters;
  RunStats stats;
};

/// Wait until steady_ns() reaches `when`: sleep while far, spin the last
/// stretch (sleep_until alone overshoots by tens of microseconds).
void pace_until(int64_t when) {
  constexpr int64_t kSpinNs = 150'000;
  const int64_t now = steady_ns();
  if (when - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(when - now - kSpinNs));
  }
  while (steady_ns() < when) {
  }
}

/// One generator thread sends `n` requests on a seeded schedule at the
/// workload's offered rate (uniform jitter of ±50% around the mean gap)
/// while this thread collects them in order. Latency runs from each
/// request's due time, so a stall shows in every request it delays.
/// Finalize time is taken as send time + the manager's own
/// submit-to-finalize latency.
OpenLoop open_loop(Workload& w, Runtime& rt, uint64_t seed, size_t n, uint64_t base,
                   Report& rep) {
  const double gap_ns = 1e9 / w.offered_rps();
  std::vector<int64_t> due(n);
  SplitMix64 rng(seed ^ 0x5eed0f0e11ull);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += gap_ns * (0.5 + rng.next_double());
    due[i] = static_cast<int64_t>(t);
  }
  std::vector<InstanceRequest> reqs;
  for (size_t i = 0; i < n; ++i) reqs.push_back(w.request(base + i));

  std::vector<uint64_t> ids(n);
  std::vector<int64_t> sent(n);
  std::vector<InstanceResult> results(n);
  OpenLoop out;
  out.submit_us.resize(n);
  out.wait_us.resize(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t submitted = 0;  // guarded by mu
  const int64_t start = steady_ns() + 1'000'000;
  {
    InstanceManager mgr(rt);
    // Declared after mgr: joined before the manager is destroyed, also
    // when a wait() below throws.
    std::jthread generator([&] {
      for (size_t i = 0; i < n; ++i) {
        pace_until(start + due[i]);
        sent[i] = steady_ns();
        {
          Span s("instance.submit", base + i);
          ids[i] = mgr.submit(std::move(reqs[i]));
        }
        out.submit_us[i] = static_cast<double>(steady_ns() - sent[i]) / 1e3;
        {
          std::lock_guard<std::mutex> lock(mu);
          submitted = i + 1;
        }
        cv.notify_one();
      }
    });
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > i; });
      }
      const int64_t w0 = steady_ns();
      Span s("instance.wait", base + i);
      results[i] = mgr.wait(ids[i]);
      out.wait_us[i] = static_cast<double>(steady_ns() - w0) / 1e3;
    }
    generator.join();
    out.counters = mgr.counters();
    out.stats = mgr.stats();
  }
  for (size_t i = 0; i < n; ++i) {
    const bool ok = w.check_instance(base + i, results[i]);
    rep.check(ok, "open-loop request " + std::to_string(i));
    const double late = static_cast<double>(sent[i] - (start + due[i]));
    out.late_ms.push_back(late / 1e6);
    out.own_latency_ms.push_back(static_cast<double>(results[i].latency_ns) / 1e6);
    out.latency_ms.push_back(ok ? (late + static_cast<double>(results[i].latency_ns)) / 1e6
                                : kInf);
  }
  return out;
}

// -- summary printing ----------------------------------------------------------

void print_samples(const char* name, const std::vector<double>& v, const char* unit) {
  std::printf("  %-12s p2 %10.4f %-3s  p10 %10.4f  median %10.4f  p90 %10.4f  n=%zu\n", name,
              percentile(v, 0.02), unit, percentile(v, 0.1), median(v), percentile(v, 0.9),
              v.size());
}

void print_header(const Args& args, const Workload& w) {
#ifdef DELBENCH_BUILD_TYPE
  const char* build_type = DELBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  std::printf("# delbench {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"hardware_threads\": %u, \"build_type\": \"%s\", \"asserts\": false, "
              "\"workers\": [1, %d], \"serve_workers\": %d, \"sim_procs\": %d, "
              "\"burst_requests\": %zu, \"offered_rps\": %s, \"open_requests\": %zu}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              json_number(args.seconds).c_str(), args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), build_type, kWorkers, kServeWorkers,
              kSimProcs, w.burst_size(), json_number(w.offered_rps()).c_str(),
              kOpenRequests);
}

// -- untraced mode: end-to-end metrics -----------------------------------------

/// The legs run interleaved, one call each per round, until the run's
/// seconds are spent (and at least kMinRounds rounds ran), so a slow
/// stretch of the shared host lands on every leg alike. Every end-to-end
/// timing is the kFastEnd percentile of its leg's samples: interference
/// only ever adds time, and how much of a run it covers changes from run
/// to run, so the fast end of the samples repeats where their median
/// does not. Skipping the fastest few keeps one lucky sample out.
void measure_end_to_end(const Args& args, Rig& rig, const std::vector<double>& setups,
                        Report& rep) {
  Workload& w = *rig.w;
  const FixedCosts costs = load_fixed_costs();
  const SimConfig sim_cfg = sim_config(costs);

  // Cheap compiles are timed in batches of at least kCompileBatchMs.
  const double one_compile_ms = compile_once(w, rep, /*first=*/true);
  const int batch = static_cast<int>(
      std::clamp(std::ceil(kCompileBatchMs / std::max(one_compile_ms, 1e-6)), 1.0, 100000.0));

  std::vector<double> compile_ms, w1_ms, w4_ms, sim_ms, burst_ms;
  int64_t makespan = -1;
  const double start = now_s();
  for (size_t round = 0; round < kMinRounds || now_s() - start < args.seconds; ++round) {
    double total = 0;
    for (int b = 0; b < batch; ++b) total += compile_once(w, rep, false);
    compile_ms.push_back(total / batch);
    w1_ms.push_back(w.run_once(*rig.rt1, rep));
    w4_ms.push_back(w.run_once(*rig.rt4, rep));
    const SimSample sample = w.sim_once(sim_cfg, true, rep);
    if (makespan < 0) makespan = sample.makespan_ns;
    rep.check(sample.makespan_ns == makespan, "virtual makespan repeats exactly");
    sim_ms.push_back(sample.wall_ms);
    burst_ms.push_back(burst_once(w, *rig.burst_rt, rep));
  }
  auto estimate = [](const std::vector<double>& v) { return percentile(v, kFastEnd); };
  const double burst_rps = static_cast<double>(w.burst_size()) * 1000.0 / estimate(burst_ms);

  std::printf("end-to-end (untraced; one value per round, %zu rounds; reported: p%g):\n",
              compile_ms.size(), kFastEnd * 100);
  print_samples("setup_s", setups, "s");
  print_samples("compile_ms", compile_ms, "ms");
  print_samples("run_w1_ms", w1_ms, "ms");
  print_samples("run_w4_ms", w4_ms, "ms");
  print_samples("sim_wall_ms", sim_ms, "ms");
  print_samples("burst_ms", burst_ms, "ms");
  std::printf("  compile batch %d calls\n", batch);
  std::printf("  sim_makespan_ms %.6f (virtual, fixed cost map)\n",
              static_cast<double>(makespan) / 1e6);
  std::printf("  error_ratio %.6f (%llu of %llu operations)\n",
              ratio(static_cast<double>(rep.failed()), static_cast<double>(rep.attempted())),
              static_cast<unsigned long long>(rep.failed()),
              static_cast<unsigned long long>(rep.attempted()));

  rep.set("setup_s", median(setups), "s");
  rep.set("compile_ms", estimate(compile_ms), "ms");
  rep.set("run_w1_ms", estimate(w1_ms), "ms");
  rep.set("run_w4_ms", estimate(w4_ms), "ms");
  rep.set("sim_wall_ms", estimate(sim_ms), "ms");
  rep.set("inst_burst_rps", burst_rps, "1/s");
  rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

// -- traced mode: per-layer metrics --------------------------------------------

volatile uint64_t g_sink = 0;

/// Raw operator-call rung: the registry's add/sub/less_than called
/// directly, outside any executor. Mean nanoseconds per call.
double op_call_ns(const OperatorRegistry& reg) {
  Span s("runtime.op_call_rung");
  constexpr int kCalls = 200000;
  int64_t total_ns = 0, calls = 0;
  uint64_t sink = 0;
  for (const char* name : {"add", "sub", "less_than"}) {
    const int index = reg.index_of(name);
    if (index < 0) continue;
    const OperatorDef& def = reg.at(static_cast<size_t>(index));
    std::array<Value, 2> args;
    const int64_t t0 = steady_ns();
    for (int k = 0; k < kCalls; ++k) {
      args[0] = Value::of(static_cast<int64_t>(k));
      args[1] = Value::of(int64_t{3});
      OpContext ctx(def, args, 0);
      sink += static_cast<uint64_t>(def.fn(ctx).kind());
    }
    total_ns += steady_ns() - t0;
    calls += kCalls;
  }
  g_sink = sink;  // keep the calls observable
  return ratio(static_cast<double>(total_ns), static_cast<double>(calls));
}

/// Sum of operator durations in a trace, in nanoseconds.
double operator_ns(const std::vector<TraceEvent>& events, const OperatorRegistry& reg,
                   double* profile_ms) {
  const int64_t t0 = steady_ns();
  tools::CostProfile profile;
  {
    Span s("tools.profile");
    profile = tools::profile_from_trace(events, reg);
  }
  *profile_ms = static_cast<double>(steady_ns() - t0) / 1e6;
  double total = 0;
  for (const auto& [name, hist] : profile.operators) total += static_cast<double>(hist.total());
  return total;
}

template <typename Field>
double median_of(const std::vector<RunStats>& stats, Field field) {
  std::vector<double> v;
  for (const RunStats& st : stats) v.push_back(static_cast<double>(st.*field));
  return median(v);
}

void measure_per_layer(const Args& args, Rig& rig, Report& rep) {
  Workload& w = *rig.w;
  const double s = args.seconds;

  // Compile ladder, checked byte for byte against compile_source.
  const std::string reference = reference_analysis_json("<bench>", w.compile_text(),
                                                        w.compile_registry(), w.compile_options());
  std::vector<LadderSample> ladder;
  timed_reps(s * 0.15, 3, 100000, [&] {
    Span leg("bench.compile", active_recorder()->next_run());
    const int64_t t0 = steady_ns();
    ladder.push_back(replay_compile("<bench>", w.compile_text(), w.compile_registry(),
                                    w.compile_options()));
    rep.check(ladder.back().ok && ladder.back().analysis_json == reference,
              "replayed compile ladder matches compile_source");
    return static_cast<double>(steady_ns() - t0) / 1e6;
  });
  auto ladder_ms = [&](double LadderSample::*field) {
    std::vector<double> v;
    for (const LadderSample& l : ladder) v.push_back(l.*field);
    return median(v);
  };
  const LadderSample& last = ladder.back();
  rep.set("lang.lex_ms", ladder_ms(&LadderSample::lex_ms), "ms");
  rep.set("lang.parse_ms", ladder_ms(&LadderSample::parse_ms), "ms");
  rep.set("lang.macro_ms", ladder_ms(&LadderSample::macro_ms), "ms");
  rep.set("lang.tokens", static_cast<double>(last.tokens), "count");
  rep.set("sema.env_ms", ladder_ms(&LadderSample::env_ms), "ms");
  rep.set("opt.ast_ms", ladder_ms(&LadderSample::opt_ms), "ms");
  rep.set("opt.ast_nodes", static_cast<double>(last.ast_nodes), "count");
  rep.set("graph.build_ms", ladder_ms(&LadderSample::build_ms), "ms");
  rep.set("graph.nodes_built", static_cast<double>(last.nodes_built), "count");
  rep.set("analysis.graph_opt_ms", ladder_ms(&LadderSample::graph_opt_ms), "ms");
  rep.set("analysis.graph_opt_rounds", static_cast<double>(last.graph_opt_rounds), "count");
  rep.set("analysis.facts_ms", ladder_ms(&LadderSample::facts_ms), "ms");
  rep.set("analysis.sched_hints_ms", ladder_ms(&LadderSample::sched_hints_ms), "ms");
  rep.set("analysis.sole_consumer_ms", ladder_ms(&LadderSample::sole_consumer_ms), "ms");
  rep.set("analysis.nodes_final", static_cast<double>(last.nodes_final), "count");
  rep.set("analysis.chains_fused", static_cast<double>(last.chains_fused), "count");
  rep.set("analysis.consts_folded", static_cast<double>(last.consts_folded), "count");

  // Runtime: untraced runs for counters and per-node cost, traced runs
  // for operator busy time and the tracing overhead.
  auto run_leg = [&](Runtime& rt, double budget, const char* name,
                     std::vector<RunStats>* stats) {
    return timed_reps(budget, 3, 100000, [&] {
      Span leg(name, active_recorder()->next_run());
      const double ms = w.run_once(rt, rep);
      if (stats != nullptr) stats->push_back(rt.last_stats());
      return ms;
    });
  };
  std::vector<RunStats> st1, st4;
  const std::vector<double> w1 = run_leg(*rig.rt1, s * 0.15, "bench.run_w1", &st1);
  const std::vector<double> w4 = run_leg(*rig.rt4, s * 0.15, "bench.run_w4", &st4);
  Runtime rt1t(w.run_registry(), runtime_config(1, true));
  Runtime rt4t(w.run_registry(), runtime_config(kWorkers, true));
  Report scratch(/*quiet=*/true);
  w.run_once(rt4t, scratch);  // warm the traced runtime's pools and rings
  const std::vector<double> w4t =
      run_leg(rt4t, s * 0.1, "bench.run_w4_traced", nullptr);
  const double w4t_last_ms = w4t.back();
  w.run_once(rt1t, scratch);
  const double w1t_last_ms =
      run_leg(rt1t, s * 0.05, "bench.run_w1_traced", nullptr).back();

  const RunStats& s1 = st1.back();
  const double nodes = static_cast<double>(s1.nodes_executed);
  const double invocations = static_cast<double>(s1.operator_invocations);
  rep.set("runtime.nodes_executed", nodes, "count");
  rep.set("runtime.operator_invocations", invocations, "count");
  rep.set("runtime.activations_created", static_cast<double>(s1.activations_created), "count");
  rep.set("runtime.ns_per_node.w1", ratio(median(w1) * 1e6, nodes), "ns");
  rep.set("runtime.ns_per_node.w4",
          ratio(median(w4) * 1e6, static_cast<double>(st4.back().nodes_executed)), "ns");
  const double call_ns = op_call_ns(w.run_registry());
  rep.set("runtime.op_call_ns", call_ns, "ns");
  double profile_ms = 0;
  const double op_ns_1 = operator_ns(rt1t.trace_events(), w.run_registry(), &profile_ms);
  // Builtin operators are priced by the raw-call rung against the
  // untraced runs; coarse application operators, which the rung cannot
  // call, by their durations in the traced run, against that run's wall.
  rep.set("runtime.overhead_ns_per_node.w1",
          w.builtin_operators()
              ? overhead_ns_per_node(median(w1) * 1e6, invocations, call_ns, nodes)
              : ratio(w1t_last_ms * 1e6 - op_ns_1, nodes),
          "ns");
  rep.set("runtime.speedup.w4", ratio(median(w1), median(w4)), "x");
  rep.set("runtime.sched.steals", median_of(st4, &RunStats::sched_steals), "count");
  rep.set("runtime.sched.failed_steals", median_of(st4, &RunStats::sched_failed_steals), "count");
  rep.set("runtime.sched.parks", median_of(st4, &RunStats::sched_parks), "count");
  rep.set("runtime.sched.wakeups", median_of(st4, &RunStats::sched_wakeups), "count");
  rep.set("runtime.sched.injected_enqueues", median_of(st4, &RunStats::sched_injected_enqueues),
          "count");
  const double pooled = median_of(st1, &RunStats::activations_pooled);
  rep.set("runtime.pool.hit_ratio",
          ratio(pooled, pooled + median_of(st1, &RunStats::activations_allocated)), "ratio");
  rep.set("runtime.peak_live_activations", median_of(st4, &RunStats::peak_live_activations),
          "count");
  rep.set("runtime.cow_copies", median_of(st4, &RunStats::cow_copies), "count");
  rep.set("runtime.cow_skipped", median_of(st4, &RunStats::cow_skipped), "count");

  const std::vector<TraceEvent>& events = rt4t.trace_events();
  const double op_ns_4 = operator_ns(events, w.run_registry(), &profile_ms);
  rep.set("runtime.operator_busy_frac.w4", ratio(op_ns_4, w4t_last_ms * 1e6 * kWorkers), "ratio");
  rep.set("tools.trace_overhead_ratio", ratio(median(w4t), median(w4)), "x");
  rep.set("tools.trace_events", static_cast<double>(events.size()), "count");
  rep.set("tools.trace_overwritten", static_cast<double>(rt4t.trace_events_overwritten()),
          "count");
  rep.set("tools.profile_ms", profile_ms, "ms");
  {
    Span span("tools.trace_export");
    const int64_t t0 = steady_ns();
    std::ostringstream sink;
    tools::write_trace_events(sink, events, w.run_registry());
    rep.set("tools.trace_export_ms", static_cast<double>(steady_ns() - t0) / 1e6, "ms");
  }

  // Simulator: the measured size and a smaller one for the growth ratio.
  const FixedCosts costs = load_fixed_costs();
  const SimConfig sim_cfg = sim_config(costs);
  SimSample large, small;
  auto sim_leg = [&](bool is_large, double budget, SimSample* keep) {
    return timed_reps(budget, 3, 100000, [&] {
      Span leg(is_large ? "bench.sim_large" : "bench.sim_small", active_recorder()->next_run());
      *keep = w.sim_once(sim_cfg, is_large, rep);
      return keep->wall_ms;
    });
  };
  const std::vector<double> sim_large_ms = sim_leg(true, s * 0.1, &large);
  const std::vector<double> sim_small_ms = sim_leg(false, s * 0.05, &small);
  const double ns_large = ratio(median(sim_large_ms) * 1e6, static_cast<double>(large.nodes));
  const double ns_small = ratio(median(sim_small_ms) * 1e6, static_cast<double>(small.nodes));
  rep.set("sim.nodes_executed", static_cast<double>(large.nodes), "count");
  rep.set("sim.ns_per_node", ns_large, "ns");
  rep.set("sim.per_node_growth", ratio(ns_large, ns_small), "x");
  rep.set("sim.makespan_vms", static_cast<double>(large.makespan_ns) / 1e6, "vms");

  // Instances and faults: the open loop, traced per call, on a warmed
  // runtime of its own.
  Runtime open_rt(w.serve_registry(), runtime_config(kServeWorkers));
  burst_once(w, open_rt, scratch);
  const OpenLoop open =
      open_loop(w, open_rt, args.seed, kOpenRequests, kOpenBase, rep);
  rep.set("instance.submit_us", median(open.submit_us), "us");
  rep.set("instance.wait_us", median(open.wait_us), "us");
  rep.set("instance.latency_p50_ms", median(open.own_latency_ms), "ms");
  rep.set("instance.due_p50_ms", percentile(open.latency_ms, 0.5), "ms");
  rep.set("instance.due_p99_ms", percentile(open.latency_ms, 0.99), "ms");
  rep.set("instance.gen_late_p99_ms", percentile(open.late_ms, 0.99), "ms");
  rep.set("instance.gen_late_max_ms", percentile(open.late_ms, 1.0), "ms");
  rep.set("instance.completed", static_cast<double>(open.counters.completed), "count");
  rep.set("instance.faulted", static_cast<double>(open.counters.faulted), "count");
  rep.set("instance.budget_killed", static_cast<double>(open.counters.budget_killed), "count");
  rep.set("instance.shed", static_cast<double>(open.counters.shed), "count");
  rep.set("fault.raised", static_cast<double>(open.stats.faults_raised), "count");
  rep.set("fault.injected", static_cast<double>(open.stats.faults_injected), "count");
  rep.set("fault.items_purged", static_cast<double>(open.stats.items_purged), "count");
}

/// Layers whose self time the traced run reports, by span-name prefix.
const char* const kSpanLayers[] = {"bench", "core", "lang", "sema", "opt", "graph",
                                   "analysis", "runtime", "sim", "instance", "tools"};

void report_spans(const Args& args, const SpanRecorder& recorder, Report& rep) {
  const std::vector<SpanRecord> spans = recorder.spans();
  const std::map<std::string, int64_t> self = self_time_by_layer(spans);
  for (const char* layer : kSpanLayers) {
    const auto it = self.find(layer);
    rep.set(std::string("self_ms.") + layer,
            it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6, "ms");
  }
  std::error_code ec;
  std::filesystem::create_directories(".bench_build/spans", ec);
  const std::string path = ".bench_build/spans/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream out(path);
  write_spans_jsonl(out, spans);
  std::printf("spans: %zu written to %s\n", spans.size(), out ? path.c_str() : "(failed)");
}

}  // namespace

int run_benchmark(const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // one set-up alive at a time
    double seconds = 0;
    rig = set_up(args, &seconds);
    setups.push_back(seconds);
  }
  print_header(args, *rig->w);
  rig->w->prepare_oracles();

  Report rep;
  SpanRecorder recorder;
  if (args.trace) {
    active_recorder() = &recorder;
    measure_per_layer(args, *rig, rep);
    active_recorder() = nullptr;
    report_spans(args, recorder, rep);
    rep.set("error_ratio",
            ratio(static_cast<double>(rep.failed()), static_cast<double>(rep.attempted())),
            "ratio");
  } else {
    measure_end_to_end(args, *rig, setups, rep);
  }
  std::printf("%s\n", rep.result_json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace delbench
