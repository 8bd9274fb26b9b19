// Multi-instance soak + hygiene check (docs/ROBUSTNESS.md "Isolation
// model"): the InstanceManager shares the plain runtime's hot paths
// (the drain hook and the live-activation ledger carry a per-run
// manager check), so a runtime that never constructs a manager must be
// indistinguishable from the pre-instance build.
//
// Protocol:
//
//  * off_a vs off_b — two identical runtimes running the §9.2 fan-out
//    parmap program through plain run(), interleaved min-of-N. Their
//    ratio is the measurement noise floor *plus* any hidden cost of the
//    compiled-but-unused manager hooks; the bench FAILS (exit 1) if the
//    geometric mean across worker counts leaves ±5%.
//  * managed — the same program as a one-instance manager session per
//    rep (construct, submit, wait, destruct), reported as a ratio
//    against off_a for context: the full per-session admission/finalize
//    overhead on top of identical graph work.
//  * soak — thousands of requests mixing healthy / faulting / stalling
//    / budget-buster instances through one manager per config, across
//    worker counts and the virtual-time simulator.
//    Reports req/s and p50/p99 instance latency (LogHistogram, the
//    metrics-layer estimator), and FAILS if isolation is violated: a
//    healthy instance not completing with the right value, or the
//    outcome tallies not conserving admissions.
//
// `--quick` drops reps and soak size for CI; a JSON path as the last
// argument writes the results (BENCH_instances.json is a recorded run).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/delirium.h"
#include "src/runtime/instance.h"
#include "src/tools/metrics.h"
#include "src/tools/report.h"

using namespace delirium;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wide parmap of cheap operators joined by an iterate fold: maximal
/// scheduler traffic per unit of useful work.
const char* kFanOutSource = R"(
work(x) add(mul(x, x), incr(x))
total(p)
  iterate {
    i = 0, incr(i)
    acc = 0, add(acc, package_get(p, i))
  } while is_not_equal(i, package_size(p)), result acc
main() total(parmap(work, range(512)))
)";

/// Recursive fib survives the optimizer with its template intact, so
/// the soak can call it by name with per-request arguments.
const char* kFibSource =
    "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    "main() fib(10)";

int64_t fib(int64_t n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }

/// The injected operators live in their own tiny functions; those are
/// single-call so the optimizer would inline them away — compile the
/// chaos programs unoptimized to keep the templates callable by name.
CompiledProgram compile_noopt(const std::string& source, OperatorRegistry& reg) {
  CompileOptions copts;
  copts.optimize = false;
  return compile_or_throw(source, reg, copts);
}

struct AaPoint {
  int workers;
  double off_a_ms;
  double off_b_ms;
  double managed_ms;
};

struct SoakPoint {
  std::string config;
  uint64_t requests = 0;
  uint64_t completed = 0;
  uint64_t faulted = 0;
  uint64_t budget_killed = 0;
  uint64_t injected = 0;  // injection-plan actions that fired (throws + stalls)
  double wall_ms = 0;
  double req_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

// Request classes by submission index i (ids are dense and 1-based, so
// class of result id is (id - 1) % 5): two healthy fib calls, one
// faulting, one stalling, one activation-budget buster.
enum SoakClass { kHealthyA = 0, kHealthyB = 1, kChaos = 2, kStall = 3, kBuster = 4 };

InstanceRequest soak_request(size_t i, const CompiledProgram& fib_prog,
                             const CompiledProgram& chaos_prog,
                             const CompiledProgram& stall_prog) {
  InstanceRequest req;
  switch (i % 5) {
    case kHealthyA:
    case kHealthyB:
      req.program = &fib_prog;
      req.function = "fib";
      req.args = {Value::of(static_cast<int64_t>(6 + i % 5))};
      break;
    case kChaos:
      req.program = &chaos_prog;
      req.function = "poke";
      req.args = {Value::of(static_cast<int64_t>(i))};
      break;
    case kStall:
      req.program = &stall_prog;
      req.function = "dawdle";
      req.args = {Value::of(static_cast<int64_t>(i))};
      break;
    case kBuster:
      req.program = &fib_prog;
      req.function = "fib";
      req.args = {Value::of(static_cast<int64_t>(12))};
      req.budget.max_activations = 16;
      break;
  }
  return req;
}

/// Validate one finished soak: healthy instances completed with the
/// reference value, busters tripped their budget, and the outcome
/// tallies conserve admissions. Returns false (and prints why) on any
/// isolation violation.
bool check_soak(const std::string& config, const std::vector<InstanceResult>& results,
                const InstanceCounters& counters) {
  for (const InstanceResult& r : results) {
    const size_t cls = (r.id - 1) % 5;
    if (cls == kHealthyA || cls == kHealthyB) {
      const int64_t want = fib(static_cast<int64_t>(6 + (r.id - 1) % 5));
      if (r.outcome != InstanceOutcome::kCompleted || r.value.as_int() != want) {
        std::fprintf(stderr, "FAIL [%s]: healthy instance %llu -> %s (%s)\n",
                     config.c_str(), static_cast<unsigned long long>(r.id),
                     instance_outcome_name(r.outcome), r.error.c_str());
        return false;
      }
    } else if (cls == kBuster && r.outcome != InstanceOutcome::kBudgetExhausted) {
      std::fprintf(stderr, "FAIL [%s]: buster instance %llu -> %s, want budget_exhausted\n",
                   config.c_str(), static_cast<unsigned long long>(r.id),
                   instance_outcome_name(r.outcome));
      return false;
    }
  }
  if (counters.admitted != counters.completed + counters.faulted + counters.budget_killed ||
      counters.shed != 0 || counters.live != 0) {
    std::fprintf(stderr, "FAIL [%s]: outcome tallies do not conserve admissions\n",
                 config.c_str());
    return false;
  }
  return true;
}

SoakPoint summarize(const std::string& config, uint64_t requests, double wall_ms,
                    const InstanceCounters& counters, uint64_t injected,
                    const std::vector<int64_t>& latencies) {
  tools::LogHistogram hist;
  for (int64_t ns : latencies) hist.observe(ns);
  SoakPoint p;
  p.config = config;
  p.requests = requests;
  p.completed = counters.completed;
  p.faulted = counters.faulted;
  p.budget_killed = counters.budget_killed;
  p.injected = injected;
  p.wall_ms = wall_ms;
  p.req_per_s = wall_ms > 0 ? 1000.0 * static_cast<double>(requests) / wall_ms : 0;
  p.p50_ms = static_cast<double>(hist.percentile(0.50)) / 1e6;
  p.p99_ms = static_cast<double>(hist.percentile(0.99)) / 1e6;
  return p;
}

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
  const size_t soak_n = quick ? 250 : 2000;

  OperatorRegistry registry;
  register_builtin_operators(registry);
  const CompiledProgram fanout = compile_or_throw(kFanOutSource, registry);

  // ------------------------------------------------------------------
  // A/A gate: the single-run path with the manager compiled but unused
  // ------------------------------------------------------------------
  std::vector<AaPoint> aa_points;
  for (const int workers : quick ? std::vector<int>{4} : std::vector<int>{1, 2, 4, 8}) {
    RuntimeConfig config;
    config.num_workers = workers;
    Runtime off_a(registry, config);
    Runtime off_b(registry, config);
    Runtime managed_rt(registry, config);

    auto timed_plain = [&](Runtime& runtime) {
      const double start = now_ms();
      runtime.run(fanout);
      return now_ms() - start;
    };
    // One-instance manager session per rep: admission, spawn, drain
    // hook, finalize, session teardown — the whole per-request path.
    auto timed_managed = [&] {
      const double start = now_ms();
      {
        InstanceManager mgr(managed_rt);
        mgr.submit(InstanceRequest{.program = &fanout});
        mgr.wait_all();
      }
      return now_ms() - start;
    };
    timed_plain(off_a);  // warm up outside the clock
    timed_plain(off_b);
    timed_managed();
    AaPoint p{workers, 1e30, 1e30, 1e30};
    for (int rep = 0; rep < reps; ++rep) {
      p.off_a_ms = std::min(p.off_a_ms, timed_plain(off_a));
      p.off_b_ms = std::min(p.off_b_ms, timed_plain(off_b));
      p.managed_ms = std::min(p.managed_ms, timed_managed());
    }
    aa_points.push_back(p);
  }

  tools::Table aa_table(
      {"workers", "plain A (ms)", "plain B (ms)", "managed (ms)", "B/A", "managed/A"});
  double log_sum = 0;
  for (const AaPoint& p : aa_points) {
    const double aa_ratio = p.off_b_ms / p.off_a_ms;
    log_sum += std::log(aa_ratio);
    aa_table.add_row({std::to_string(p.workers), tools::Table::ms(p.off_a_ms, 2),
                      tools::Table::ms(p.off_b_ms, 2), tools::Table::ms(p.managed_ms, 2),
                      tools::Table::ratio(aa_ratio),
                      tools::Table::ratio(p.managed_ms / p.off_a_ms)});
  }
  const double geomean = std::exp(log_sum / static_cast<double>(aa_points.size()));
  const double tolerance = quick ? 0.15 : 0.05;
  const bool aa_ok = geomean >= 1.0 - tolerance && geomean <= 1.0 + tolerance;
  std::printf("single-run path A/A (parmap width 512, interleaved min of %d):\n", reps);
  aa_table.print(std::cout);
  std::printf("plain-run geomean ratio: %.3f\n\n", geomean);

  // ------------------------------------------------------------------
  // Chaos soak: healthy / faulting / stalling / budget-buster traffic
  // ------------------------------------------------------------------
  OperatorRegistry chaos_registry;
  register_builtin_operators(chaos_registry);
  chaos_registry.add("chaos_op", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); })
      .pure();
  chaos_registry.add("slow_op", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); })
      .pure();
  // Structural (seq-seeded) selectors so every config sees the same
  // fault pattern; the stall clause delays without failing.
  chaos_registry.set_fault_plan(std::make_shared<const FaultPlan>(FaultPlan::parse(
      "chaos_op:throw:every=3:seed=4,slow_op:stall=200000:every=2:seed=11")));

  const CompiledProgram fib_prog = compile_or_throw(kFibSource, chaos_registry);
  const CompiledProgram chaos_prog =
      compile_noopt("poke(n) add(chaos_op(n), 1)\nmain() poke(1)", chaos_registry);
  const CompiledProgram stall_prog =
      compile_noopt("dawdle(n) add(slow_op(n), 1)\nmain() dawdle(1)", chaos_registry);

  const std::vector<int> threaded_workers =
      quick ? std::vector<int>{4} : std::vector<int>{2, 8};

  std::vector<SoakPoint> soak_points;
  bool soak_ok = true;
  for (const int workers : threaded_workers) {
    const std::string name = "ws" + std::to_string(workers);
    RuntimeConfig config;
    config.num_workers = workers;
    Runtime runtime(chaos_registry, config);

    const double start = now_ms();
    std::vector<InstanceResult> results;
    std::vector<int64_t> latencies;
    InstanceCounters counters;
    uint64_t injected = 0;
    {
      InstanceManager mgr(runtime);
      for (size_t i = 0; i < soak_n; ++i) {
        mgr.submit(soak_request(i, fib_prog, chaos_prog, stall_prog));
      }
      results = mgr.wait_all();
      latencies = mgr.latencies();
      counters = mgr.counters();
      injected = mgr.stats().faults_injected;
    }
    const double wall_ms = now_ms() - start;
    soak_ok = check_soak(name, results, counters) && soak_ok;
    soak_points.push_back(summarize(name, soak_n, wall_ms, counters, injected, latencies));
  }

  {  // Virtual-time simulator: one deterministic batch, wall-clock rate.
    SimRuntime sim(chaos_registry, SimConfig{.num_procs = 4});
    const double start = now_ms();
    std::vector<InstanceResult> results;
    std::vector<int64_t> latencies;
    InstanceCounters counters;
    uint64_t injected = 0;
    {
      InstanceManager mgr(sim);
      for (size_t i = 0; i < soak_n; ++i) {
        mgr.submit(soak_request(i, fib_prog, chaos_prog, stall_prog));
      }
      results = mgr.wait_all();
      latencies = mgr.latencies();
      counters = mgr.counters();
      injected = mgr.stats().faults_injected;
    }
    const double wall_ms = now_ms() - start;
    soak_ok = check_soak("sim4", results, counters) && soak_ok;
    soak_points.push_back(summarize("sim4", soak_n, wall_ms, counters, injected, latencies));
  }

  tools::Table soak_table({"config", "requests", "completed", "faulted", "budget", "injected",
                           "wall (ms)", "req/s", "p50 (ms)", "p99 (ms)"});
  for (const SoakPoint& p : soak_points) {
    soak_table.add_row({p.config, tools::Table::count(p.requests),
                        tools::Table::count(p.completed), tools::Table::count(p.faulted),
                        tools::Table::count(p.budget_killed), tools::Table::count(p.injected),
                        tools::Table::ms(p.wall_ms, 1), tools::Table::ms(p.req_per_s, 0),
                        tools::Table::ms(p.p50_ms, 3), tools::Table::ms(p.p99_ms, 3)});
  }
  std::printf("chaos soak (%zu requests: 40%% healthy fib, 20%% faulting, 20%% stalling, "
              "20%% budget busters; sim latencies are virtual):\n",
              soak_n);
  soak_table.print(std::cout);

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"bench_instances\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"aa_fanout_parmap512_interleaved_min_of_" << reps << "\": [\n";
  for (size_t i = 0; i < aa_points.size(); ++i) {
    const AaPoint& p = aa_points[i];
    json << "    {\"workers\": " << p.workers
         << ", \"plain_a_ms\": " << tools::Table::ms(p.off_a_ms, 2)
         << ", \"plain_b_ms\": " << tools::Table::ms(p.off_b_ms, 2)
         << ", \"managed_ms\": " << tools::Table::ms(p.managed_ms, 2)
         << ", \"aa_ratio\": " << tools::Table::ms(p.off_b_ms / p.off_a_ms, 3)
         << ", \"managed_ratio\": " << tools::Table::ms(p.managed_ms / p.off_a_ms, 3) << "}"
         << (i + 1 < aa_points.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"soak_" << soak_n << "_requests\": [\n";
  for (size_t i = 0; i < soak_points.size(); ++i) {
    const SoakPoint& p = soak_points[i];
    json << "    {\"config\": \"" << p.config << "\", \"requests\": " << p.requests
         << ", \"completed\": " << p.completed << ", \"faulted\": " << p.faulted
         << ", \"budget_killed\": " << p.budget_killed << ", \"injected\": " << p.injected
         << ", \"wall_ms\": " << tools::Table::ms(p.wall_ms, 1)
         << ", \"req_per_s\": " << tools::Table::ms(p.req_per_s, 0)
         << ", \"p50_ms\": " << tools::Table::ms(p.p50_ms, 3)
         << ", \"p99_ms\": " << tools::Table::ms(p.p99_ms, 3) << "}"
         << (i + 1 < soak_points.size() ? "," : "") << "\n";
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
                 "FAIL: manager-free runtimes differ by more than %.0f%% — the unused "
                 "instance hooks are not free\n",
                 tolerance * 100);
    return 1;
  }
  if (!soak_ok) {
    std::fprintf(stderr, "FAIL: chaos soak violated an isolation contract (see above)\n");
    return 1;
  }
  std::printf("single-run overhead within the %.0f%% bound; soak isolation contracts held\n",
              tolerance * 100);
  return 0;
}
