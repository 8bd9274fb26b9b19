// Schedule golden for the virtual-time executor.
//
// Every configuration below runs under fixed operator costs, so its whole
// schedule is a pure function of (program, config): the makespan, the
// per-processor busy time, every RunStats counter, the full trace event
// sequence (timestamps and sequence numbers included), and each batch
// instance's outcome and message. tests/golden/sim_schedule.json pins all
// of it, so a change to SimRuntime's pick rule, its ready queue, or its
// cost charging shows up as a byte diff naming the first differing line.
//
// The configurations are chosen to reach every branch of the pick rule
// (docs/RUNTIME.md, "The virtual-time executor"): 1, 3, 4 and 8
// processors; priorities and cost hints on and off; no, operator and
// data affinity; a preference outside 0..P-1; the three-class ladder
// (UMA, or NUMA with locality scheduling off) and the four-class one
// (numa4 with locality scheduling on); cost replay; and the paths that
// cancel queued work — an activation-budget kill and staggered arrivals
// in a batch, a fail_fast fault purge, retries with virtual backoff, and
// the virtual watchdog.
//
// Regenerate only for an intended schedule change:
//   DELIRIUM_REGEN_GOLDEN=1 ./build/tests/sim_schedule_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/tools/metrics.h"
#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::ScopedEnv;

/// Every DELIRIUM_* knob that could perturb a compile or a schedule,
/// cleared so suite-wide CI exports (fault injection, topology, ...)
/// cannot reach the golden configurations.
constexpr std::initializer_list<const char*> kScheduleEnv = {
    "DELIRIUM_GRAPH_FACTS",   "DELIRIUM_FACTS_FOLD",  "DELIRIUM_FACTS_DEADPARAM",
    "DELIRIUM_FACTS_STRAND",  "DELIRIUM_FACTS_SOLE",  "DELIRIUM_FACTS_FUSE",
    "DELIRIUM_FACTS_TUPLES",  "DELIRIUM_SCHED_HINTS", "DELIRIUM_COST_HINTS",
    "DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES",     "DELIRIUM_EXECUTOR",
    "DELIRIUM_TRACE",         "DELIRIUM_TRACE_CAPACITY", "DELIRIUM_AFFINITY",
    "DELIRIUM_TOPOLOGY",      "DELIRIUM_LOCALITY"};

OperatorRegistry& registry() {
  static OperatorRegistry* reg = [] {
    auto* r = new OperatorRegistry();
    register_builtin_operators(*r);
    // A block of n KiB, homed on whichever processor produced it.
    r->add("mk", 1, [](OpContext& ctx) {
       const auto kib = static_cast<size_t>(ctx.arg_int(0));
       return Value::block(std::vector<double>(kib * 128, 1.0));
     }).pure();
    // Reads a block (data affinity routes it to the block's home).
    r->add("rd", 2, [](OpContext& ctx) {
       const auto& data = ctx.arg_block<std::vector<double>>(0);
       return Value::of(static_cast<int64_t>(data.size()) + ctx.arg_int(1));
     }).pure();
    r->add("sum_pkg", 1, [](OpContext& ctx) {
       int64_t sum = 0;
       for (const Value& v : ctx.arg(0).as_tuple().elems) sum += v.as_int();
       return Value::of(sum);
     }).pure();
    // Deterministic operator fault: throws on 3.
    r->add("boom", 1, [](OpContext& ctx) -> Value {
      if (ctx.arg_int(0) == 3) throw RuntimeError("boom on 3");
      return Value::of(ctx.arg_int(0));
    });
    return r;
  }();
  return *reg;
}

/// Per-operator virtual costs: distinct per operator, so a misattributed
/// cost moves the makespan. Everything else costs the default.
const std::unordered_map<std::string, Ticks>& fixed_costs() {
  static const std::unordered_map<std::string, Ticks> costs = {
      {"add", 700}, {"sub", 300}, {"less_than", 200}, {"mul", 1100},
      {"mk", 5000}, {"rd", 2500}, {"sum_pkg", 900},   {"boom", 1300}};
  return costs;
}

constexpr const char* kFib =
    "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    "main() fib(8)\n";

/// Several readers per block plus a parmap over blocks: data affinity
/// binds most operator nodes, so bound, same-domain and elsewhere
/// classes all see traffic.
constexpr const char* kBlocks = R"(
rdone(b) rd(b, 1)
pair(b, k) add(rd(b, k), rd(b, add(k, 1)))
main()
  let a = mk(8)
      b = mk(4)
      c = mk(2)
  in add(add(add(rd(a, 1), rd(b, 2)), add(rd(c, 3), rd(a, 4))),
         add(add(pair(b, 5), pair(c, 6)),
             sum_pkg(parmap(rdone, <a, b, c, a, b, c>))))
)";

/// Entry taking a block from outside: the caller homes it on a worker
/// that may not exist in the simulated machine. Block readers and
/// unbound multiplies interleave in enqueue order, so the rank of an
/// out-of-range preference decides which runs first.
constexpr const char* kOutside = R"(
use(b, n) add(add(add(rd(b, 1), mul(n, 2)), add(rd(b, 3), mul(n, 4))),
              add(add(rd(b, 5), mul(n, 6)), add(rd(b, 7), mul(n, 8))))
main() use(mk(1), 5)
)";

/// A fan-out with a faulting branch, for fail_fast purges and budgets.
constexpr const char* kFaulty = R"(
leaf(n) mul(n, add(n, 1))
main()
  add(add(add(leaf(1), leaf(2)), add(boom(3), leaf(4))),
      add(add(leaf(5), leaf(6)), add(leaf(7), leaf(8))))
)";

/// Helpers of the batch: separate templates the requests name.
constexpr const char* kBatch =
    "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    "poke(n) add(boom(n), fib(n))\n"
    "main() fib(6)\n";

CompiledProgram compile(const char* source, bool optimize = true) {
  CompileOptions options;
  options.optimize = optimize;
  return compile_or_throw(source, registry(), options);
}

// -- JSON rendering -----------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string render_value(const Value& v) {
  return v.kind() == Value::Kind::kInt ? std::to_string(v.as_int()) : "?";
}

void render_stats(std::ostringstream& out, const RunStats& stats) {
  out << "    \"stats\": {";
  bool first = true;
  for (const tools::RunStatField& f : tools::run_stat_fields(stats)) {
    out << (first ? "" : ", ") << quote(f.name) << ": " << f.value;
    first = false;
  }
  out << "},\n";
}

void render_trace(std::ostringstream& out, const std::vector<TraceEvent>& trace) {
  out << "    \"trace\": [";
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    out << (i > 0 ? ",\n      " : "\n      ") << "[" << e.ts << ", " << e.seq << ", "
        << quote(std::string(trace_event_kind_name(e.kind))) << ", " << e.op << ", "
        << e.worker << ", " << e.arg << "]";
  }
  out << (trace.empty() ? "]" : "\n    ]");
}

// -- Single runs --------------------------------------------------------------

struct Case {
  std::string name;
  const CompiledProgram* program = nullptr;
  std::string function;  // empty = entry
  int procs = 4;
  bool priorities = true;
  bool cost_hints = true;
  AffinityMode affinity = AffinityMode::kNone;
  MemoryTopology topology;  // UMA
  bool locality = true;
  /// >= 0: the run's arguments are a fresh 1 KiB block homed on this
  /// worker, and 5.
  int home_worker = -1;
  bool fail_fast = false;
  int64_t watchdog_ns = 0;
  int max_retries = 0;
  const CostTable* replay = nullptr;  // replaces fixed costs when set
  /// DELIRIUM_INJECT_FAULTS spec for this run only.
  const char* inject = nullptr;
};

SimConfig config_of(const Case& c) {
  SimConfig config;
  config.num_procs = c.procs;
  config.use_priorities = c.priorities;
  config.cost_hints = c.cost_hints;
  config.affinity = c.affinity;
  config.topology = c.topology;
  config.locality_scheduling = c.locality;
  config.fail_fast = c.fail_fast;
  config.watchdog_budget_ns = c.watchdog_ns;
  config.max_retries = c.max_retries;
  config.retry_backoff_ns = 4000;
  config.enable_tracing = true;
  if (c.replay != nullptr) {
    config.replay_costs = c.replay;
  } else {
    config.fixed_costs = &fixed_costs();
  }
  return config;
}

void render_case(std::ostringstream& out, const Case& c) {
  std::vector<Value> args;
  if (c.home_worker >= 0) {
    Value blk = Value::block(std::vector<double>(128, 2.0));
    blk.block_ptr()->set_home(c.home_worker, c.topology.domain_of(c.home_worker));
    args.push_back(std::move(blk));
    args.push_back(Value::of(int64_t{5}));
  }
  SimRuntime sim(registry(), config_of(c));
  if (c.inject != nullptr) ::setenv("DELIRIUM_INJECT_FAULTS", c.inject, 1);
  out << "  {\n    \"name\": " << quote(c.name) << ",\n";
  try {
    const std::string fn =
        c.function.empty() ? c.program->entry_template().name : c.function;
    const SimResult r = sim.run_function(*c.program, fn, std::move(args));
    out << "    \"value\": " << quote(render_value(r.result)) << ",\n";
    out << "    \"makespan\": " << r.makespan << ",\n    \"proc_busy\": [";
    for (size_t i = 0; i < r.proc_busy.size(); ++i) {
      out << (i > 0 ? ", " : "") << r.proc_busy[i];
    }
    out << "],\n";
  } catch (const std::exception& e) {
    out << "    \"error\": " << quote(e.what()) << ",\n";
  }
  ::unsetenv("DELIRIUM_INJECT_FAULTS");
  render_stats(out, sim.last_stats());
  render_trace(out, sim.trace_events());
  out << "\n  }";
}

// -- Batches ------------------------------------------------------------------

struct BatchCase {
  std::string name;
  std::vector<SimInstanceRequest> requests;
  int procs = 4;
  bool fail_fast = false;
  int64_t watchdog_ns = 0;
};

void render_batch(std::ostringstream& out, const BatchCase& b) {
  Case shape;
  shape.procs = b.procs;
  shape.fail_fast = b.fail_fast;
  shape.watchdog_ns = b.watchdog_ns;
  SimRuntime sim(registry(), config_of(shape));
  const SimBatchResult r = sim.run_instances(b.requests);
  out << "  {\n    \"name\": " << quote(b.name) << ",\n";
  out << "    \"makespan\": " << r.makespan << ",\n    \"outcomes\": [";
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    const SimInstanceOutcome& o = r.outcomes[i];
    out << (i > 0 ? ",\n      " : "\n      ") << "{\"value\": "
        << quote(o.have_value ? render_value(o.value) : "") << ", \"fault\": "
        << (o.have_fault ? "true" : "false")
        << ", \"budget\": " << (o.budget_exceeded ? "true" : "false")
        << ", \"finish\": " << o.finish << ", \"latency\": " << o.latency
        << ", \"activations\": " << o.activations << ", \"message\": " << quote(o.message)
        << "}";
  }
  out << "\n    ],\n";
  render_stats(out, r.stats);
  render_trace(out, sim.trace_events());
  out << "\n  }";
}

SimInstanceRequest request(const CompiledProgram& program, const char* fn, int64_t n,
                           Ticks arrival, uint64_t max_activations = 0,
                           int64_t time_budget_ns = 0) {
  SimInstanceRequest req;
  req.program = &program;
  req.function = fn;
  req.args.push_back(Value::of(n));
  req.arrival = arrival;
  req.max_activations = max_activations;
  req.time_budget_ns = time_budget_ns;
  return req;
}

std::string render_all() {
  const CompiledProgram fib = compile(kFib);
  const CompiledProgram blocks = compile(kBlocks, /*optimize=*/false);
  const CompiledProgram outside = compile(kOutside, /*optimize=*/false);
  const CompiledProgram faulty = compile(kFaulty, /*optimize=*/false);
  const CompiledProgram batch = compile(kBatch, /*optimize=*/false);

  // A handcrafted replay table: per-occurrence costs that differ from
  // the fixed ones, so the occurrence counter decides the schedule.
  CostTable replay;
  for (int i = 0; i < 256; ++i) {
    replay.per_op["add"].push_back(400 + 37 * (i % 7));
    replay.per_op["sub"].push_back(150 + 91 * (i % 3));
    replay.per_op["less_than"].push_back(100 + 13 * (i % 5));
  }

  const MemoryTopology uma = MemoryTopology::uma();
  const MemoryTopology numa4 = MemoryTopology::numa4();
  using A = AffinityMode;
  std::vector<Case> cases = {
      {.name = "fib8_p1", .program = &fib, .procs = 1},
      {.name = "fib8_p3_noprio", .program = &fib, .procs = 3, .priorities = false},
      {.name = "fib8_p4", .program = &fib, .procs = 4},
      {.name = "fib8_p4_nohints", .program = &fib, .procs = 4, .cost_hints = false},
      {.name = "fib8_p8_nohints", .program = &fib, .procs = 8, .cost_hints = false},
      {.name = "fib8_p3_opaff", .program = &fib, .procs = 3, .affinity = A::kOperator},
      {.name = "fib8_p8_opaff", .program = &fib, .procs = 8, .affinity = A::kOperator},
      {.name = "fib8_p8_opaff_numa4",
       .program = &fib,
       .procs = 8,
       .affinity = A::kOperator,
       .topology = numa4},
      {.name = "fib8_p4_opaff_numa4_noprio",
       .program = &fib,
       .procs = 4,
       .priorities = false,
       .affinity = A::kOperator,
       .topology = numa4},
      {.name = "fib8_p4_replay", .program = &fib, .procs = 4, .replay = &replay},
      {.name = "blocks_p1_dataff", .program = &blocks, .procs = 1, .affinity = A::kData},
      {.name = "blocks_p3_dataff", .program = &blocks, .procs = 3, .affinity = A::kData},
      {.name = "blocks_p4_dataff_noprio",
       .program = &blocks,
       .procs = 4,
       .priorities = false,
       .affinity = A::kData},
      {.name = "blocks_p4_dataff_numa4",
       .program = &blocks,
       .procs = 4,
       .affinity = A::kData,
       .topology = numa4},
      {.name = "blocks_p8_dataff_numa4",
       .program = &blocks,
       .procs = 8,
       .affinity = A::kData,
       .topology = numa4},
      {.name = "blocks_p8_dataff_numa4_nolocality",
       .program = &blocks,
       .procs = 8,
       .affinity = A::kData,
       .topology = numa4,
       .locality = false},
      {.name = "blocks_p8_opaff_numa4",
       .program = &blocks,
       .procs = 8,
       .affinity = A::kOperator,
       .topology = numa4},
      // Preferences outside 0..P-1: a block homed on worker 6 of a
      // 3-processor machine (domain 2 under numa4), which both machines
      // place as unbound. One queue level, so the affinity class alone
      // orders readers against multiplies.
      {.name = "outside_p3_dataff_noprio",
       .program = &outside,
       .function = "use",
       .procs = 3,
       .priorities = false,
       .affinity = A::kData,
       .topology = uma,
       .home_worker = 6},
      {.name = "outside_p3_dataff_numa4_noprio",
       .program = &outside,
       .function = "use",
       .procs = 3,
       .priorities = false,
       .affinity = A::kData,
       .topology = numa4,
       .home_worker = 6},
      {.name = "outside_p4_dataff_numa4",
       .program = &outside,
       .function = "use",
       .procs = 4,
       .affinity = A::kData,
       .topology = numa4,
       .home_worker = 6},
      {.name = "faulty_p3_drain", .program = &faulty, .procs = 3},
      {.name = "faulty_p3_failfast", .program = &faulty, .procs = 3, .fail_fast = true},
      {.name = "faulty_p1_failfast", .program = &faulty, .procs = 1, .fail_fast = true},
      {.name = "fib8_p4_watchdog", .program = &fib, .procs = 4, .watchdog_ns = 20000},
      // Injected throws retried with exponential virtual backoff.
      {.name = "fib8_p3_retries",
       .program = &fib,
       .procs = 3,
       .max_retries = 2,
       .inject = "sub:throw:every=5:fail_attempts=1"},
  };

  std::vector<BatchCase> batches;
  {
    // Staggered arrivals over one virtual machine: healthy instances, a
    // faulting one, an activation-budget kill, and a time-budget kill.
    BatchCase b{.name = "batch_p4_staggered"};
    b.requests.push_back(request(batch, "fib", 7, 0));
    b.requests.push_back(request(batch, "poke", 3, 2000));
    b.requests.push_back(request(batch, "fib", 9, 3000, /*max_activations=*/12));
    b.requests.push_back(request(batch, "fib", 6, 3500));
    b.requests.push_back(request(batch, "fib", 8, 4000, 0, /*time_budget_ns=*/15000));
    b.requests.push_back(request(batch, "poke", 4, 9000));
    b.requests.push_back(request(batch, "fib", 5, 60000));
    batches.push_back(std::move(b));
  }
  {
    BatchCase b{.name = "batch_p3_failfast", .procs = 3, .fail_fast = true};
    b.requests.push_back(request(batch, "poke", 3, 0));
    b.requests.push_back(request(batch, "fib", 7, 0));
    b.requests.push_back(request(batch, "poke", 5, 1000));
    batches.push_back(std::move(b));
  }
  {
    BatchCase b{.name = "batch_p8_watchdog", .procs = 8, .watchdog_ns = 30000};
    b.requests.push_back(request(batch, "fib", 8, 0));
    b.requests.push_back(request(batch, "fib", 9, 5000));
    b.requests.push_back(request(batch, "nope", 1, 6000));
    batches.push_back(std::move(b));
  }

  std::ostringstream out;
  out << "{\n\"cases\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    if (i > 0) out << ",\n";
    render_case(out, cases[i]);
  }
  out << "\n],\n\"batches\": [\n";
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i > 0) out << ",\n";
    render_batch(out, batches[i]);
  }
  out << "\n]\n}\n";
  return out.str();
}

/// Line number (1-based) and both versions of the first line where
/// `a` and `b` differ, for a readable failure on a large golden.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return "identical";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + ":\n  got:      " + (more_a ? la : "<eof>") +
             "\n  expected: " + (more_b ? lb : "<eof>");
    }
  }
}

TEST(SimSchedule, MatchesGoldenFile) {
  ScopedEnv env(kScheduleEnv);
  const std::string json = render_all();

  const std::string golden_path = std::string(DELIRIUM_GOLDEN_DIR) + "/sim_schedule.json";
  if (std::getenv("DELIRIUM_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden_path) << json;
  }
  std::ifstream golden(golden_path);
  ASSERT_TRUE(golden.good()) << "missing golden file " << golden_path;
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_TRUE(json == expected.str()) << first_difference(json, expected.str());
}

TEST(SimSchedule, IsReproducibleWithinOneProcess) {
  // The golden only means something if a rerun in the same process —
  // with warm pools and a grown trace buffer — renders the same bytes.
  ScopedEnv env(kScheduleEnv);
  const std::string first = render_all();
  EXPECT_TRUE(first == render_all()) << first_difference(render_all(), first);
}

}  // namespace
}  // namespace delirium
