#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/apps/dcc/dcc.h"
#include "src/apps/dcc/program_gen.h"
#include "src/apps/retina/retina_ops.h"
#include "src/support/clock.h"
#include "src/support/rng.h"
#include "spans.h"

#ifndef DELBENCH_DATA_DIR
#define DELBENCH_DATA_DIR "data"
#endif

namespace delbench {

using namespace delirium;

namespace {

/// Oracle for every fib result: Binet's closed form, exact in double for
/// the n used here, and independent of any Delirium code.
int64_t fib_closed(int64_t n) {
  const double sqrt5 = std::sqrt(5.0);
  return static_cast<int64_t>(std::llround(std::pow((1 + sqrt5) / 2, static_cast<double>(n)) / sqrt5));
}

/// Requests come from a fixed table of kTableSize entries, shuffled by
/// the seed and repeated: request i is entry i mod kTableSize. Every
/// kTableSize consecutive requests hold the same mix whatever the seed,
/// so the seed changes the order of the work but never its amount.
constexpr size_t kTableSize = 100;

template <typename T>
std::vector<T> shuffled(std::vector<T> table, uint64_t seed) {
  SplitMix64 rng(seed ^ 0x7ab1e5eedull);
  for (size_t i = table.size(); i > 1; --i) std::swap(table[i - 1], table[rng.next() % i]);
  return table;
}

const char* kFibSource =
    "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    "main() fib(20)\n";

double ms_since(Ticks t0) { return static_cast<double>(now_ticks() - t0) / 1e6; }

/// Runtime::run under its span; `*ms` gets the call's wall time.
Value run_program(Runtime& rt, const CompiledProgram& program, double* ms) {
  const Ticks t0 = now_ticks();
  Span s("runtime.run");
  Value v = rt.run(program);
  *ms = ms_since(t0);
  return v;
}

SimSample sim_run(const OperatorRegistry& reg, const SimConfig& config,
                  const CompiledProgram& program, const std::string& function,
                  std::vector<Value> args, Value* result) {
  SimRuntime sim(reg, config);
  const Ticks t0 = now_ticks();
  Span span("sim.run");
  SimResult r = function.empty() ? sim.run(program, std::move(args))
                                 : sim.run_function(program, function, std::move(args));
  SimSample s{ms_since(t0), r.makespan, r.stats.nodes_executed};
  *result = std::move(r.result);
  return s;
}

bool is_int(const Value& v, int64_t want) { return v.kind() == Value::Kind::kInt && v.as_int() == want; }

// ---------------------------------------------------------------------------
// instances_mix: many short instances over one InstanceManager — healthy
// fib calls, structurally injected throw faults, activation-budget
// busters.
// ---------------------------------------------------------------------------

const char* kMixSource =
    "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    "poke(n) if less_than(n, 1) then chaos_op(n) else add(chaos_op(n), poke(sub(n, 1)))\n"
    "main() fib(10)\n";

/// Request classes of the mix.
enum class MixClass { kHealthy, kChaos, kBuster };

class InstancesMix final : public Workload {
 public:
  static constexpr int64_t kChaosDepths = 5;

  explicit InstancesMix(uint64_t seed) {
    // 60% healthy fib(6..10), 25% poke(0..4), 15% budget busters.
    std::vector<Slot> table;
    for (size_t k = 0; k < kTableSize; ++k) {
      const int64_t v = static_cast<int64_t>(k % 5);
      table.push_back(k < 60 ? Slot{MixClass::kHealthy, 6 + v}
                      : k < 85 ? Slot{MixClass::kChaos, v}
                               : Slot{MixClass::kBuster, 12});
    }
    table_ = shuffled(std::move(table), seed);
    register_builtin_operators(reg_);
    reg_.add("chaos_op", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0)); }).pure();
    // Structural selector: whether an invocation throws depends on its
    // place in the activation tree, never on timing or worker count.
    reg_.set_fault_plan(
        std::make_shared<const FaultPlan>(FaultPlan::parse("chaos_op:throw:every=3:seed=4")));
    // Unoptimized, so poke and fib stay callable by name.
    CompileOptions copts;
    copts.optimize = false;
    prog_ = compile_or_throw(text_, reg_, copts);
  }
  CompileOptions compile_options() const override {
    CompileOptions copts;
    copts.optimize = false;
    return copts;
  }

  /// The solo-run outcome of poke(k) for every depth: the instance of the
  /// same call must report the same value or byte-identical fault text.
  void prepare_oracles() override {
    Runtime solo(reg_, RuntimeConfig{.num_workers = 1});
    for (int64_t k = 0; k < kChaosDepths; ++k) {
      Solo s;
      try {
        s.value = solo.run_function(prog_, "poke", {Value::of(k)}).as_int();
      } catch (const FaultError& e) {
        s.faulted = true;
        s.error = e.what();
      }
      solo_.push_back(std::move(s));
    }
  }

  const OperatorRegistry& compile_registry() const override { return reg_; }
  const std::string& compile_text() const override { return text_; }
  const OperatorRegistry& run_registry() const override { return reg_; }
  bool builtin_operators() const override { return true; }

  /// The run leg is a burst of the mix on `rt`: submit all, wait_all.
  double run_once(Runtime& rt, Report& rep) override {
    std::vector<InstanceResult> results;
    const Ticks t0 = now_ticks();
    {
      Span s("instance.burst");
      InstanceManager mgr(rt);
      for (uint64_t i = 0; i < burst_size(); ++i) mgr.submit(request(i));
      results = mgr.wait_all();
    }
    const double ms = ms_since(t0);
    for (uint64_t i = 0; i < results.size(); ++i) {
      rep.check(check_instance(i, results[i]), "mix request " + std::to_string(i));
    }
    return ms;
  }

  /// A virtual-time batch of the mix through SimRuntime::run_instances.
  SimSample sim_once(const SimConfig& config, bool large, Report& rep) override {
    const uint64_t n = large ? kTableSize : kTableSize / 2;
    std::vector<SimInstanceRequest> batch;
    for (uint64_t i = 0; i < n; ++i) {
      InstanceRequest r = request(i);
      batch.push_back(SimInstanceRequest{.program = r.program,
                                         .function = r.function,
                                         .args = r.args,
                                         .max_activations = r.budget.max_activations});
    }
    SimRuntime sim(reg_, config);
    const Ticks t0 = now_ticks();
    SimBatchResult out = [&] {
      Span span("sim.run_instances");
      return sim.run_instances(batch);
    }();
    SimSample s{ms_since(t0), out.makespan, out.stats.nodes_executed};
    for (uint64_t i = 0; i < n; ++i) {
      const SimInstanceOutcome& o = out.outcomes[i];
      InstanceResult r;
      r.outcome = o.have_value        ? InstanceOutcome::kCompleted
                  : o.budget_exceeded ? InstanceOutcome::kBudgetExhausted
                                      : InstanceOutcome::kFaulted;
      r.value = o.value;
      r.error = o.message;
      rep.check(check_instance(i, r), "sim mix request " + std::to_string(i));
    }
    return s;
  }

  const OperatorRegistry& serve_registry() const override { return reg_; }
  InstanceRequest request(uint64_t i) const override {
    InstanceRequest req;
    req.program = &prog_;
    const Slot& slot = table_[i % kTableSize];
    req.function = slot.cls == MixClass::kChaos ? "poke" : "fib";
    req.args = {Value::of(slot.arg)};
    if (slot.cls == MixClass::kBuster) req.budget.max_activations = 16;
    return req;
  }
  bool check_instance(uint64_t i, const InstanceResult& r) const override {
    const Slot& slot = table_[i % kTableSize];
    switch (slot.cls) {
      case MixClass::kHealthy:
        return r.outcome == InstanceOutcome::kCompleted && is_int(r.value, fib_closed(slot.arg));
      case MixClass::kChaos: {
        if (solo_.empty()) return false;  // oracles not prepared yet
        const Solo& s = solo_[static_cast<size_t>(slot.arg)];
        return s.faulted ? r.outcome == InstanceOutcome::kFaulted && r.error == s.error
                         : r.outcome == InstanceOutcome::kCompleted && is_int(r.value, s.value);
      }
      case MixClass::kBuster:
        return r.outcome == InstanceOutcome::kBudgetExhausted;
    }
    return false;
  }
  size_t burst_size() const override { return 300; }
  double offered_rps() const override { return 4000; }

 private:
  struct Solo {
    bool faulted = false;
    int64_t value = 0;
    std::string error;
  };
  struct Slot {
    MixClass cls;
    int64_t arg;  // fib's n or poke's depth
  };

  std::vector<Slot> table_;
  std::string text_ = kMixSource;
  OperatorRegistry reg_;
  CompiledProgram prog_;
  std::vector<Solo> solo_;
};

// ---------------------------------------------------------------------------
// fib_fine: tree-recursive fib(20); per-node runtime cost dominates. Its
// serve leg carries the instances_mix traffic.
// ---------------------------------------------------------------------------
class FibFine final : public Workload {
 public:
  explicit FibFine(uint64_t seed) : mix_(seed) {
    register_builtin_operators(reg_);
    prog_ = compile_or_throw(kFibSource, reg_);
  }
  void prepare_oracles() override { mix_.prepare_oracles(); }
  const OperatorRegistry& compile_registry() const override { return reg_; }
  const std::string& compile_text() const override { return text_; }
  const OperatorRegistry& run_registry() const override { return reg_; }
  bool builtin_operators() const override { return true; }

  double run_once(Runtime& rt, Report& rep) override {
    double ms = 0;
    const Value v = run_program(rt, prog_, &ms);
    rep.check(is_int(v, fib_closed(20)), "fib(20)");
    return ms;
  }

  SimSample sim_once(const SimConfig& config, bool large, Report& rep) override {
    const int64_t n = large ? 16 : 14;
    Value v;
    SimSample s = sim_run(reg_, config, prog_, "fib", {Value::of(n)}, &v);
    rep.check(is_int(v, fib_closed(n)), "sim fib(" + std::to_string(n) + ")");
    return s;
  }

  const OperatorRegistry& serve_registry() const override { return mix_.serve_registry(); }
  InstanceRequest request(uint64_t i) const override { return mix_.request(i); }
  bool check_instance(uint64_t i, const InstanceResult& r) const override {
    return mix_.check_instance(i, r);
  }
  size_t burst_size() const override { return mix_.burst_size(); }
  double offered_rps() const override { return mix_.offered_rps(); }

 private:
  std::string text_ = kFibSource;
  OperatorRegistry reg_;
  CompiledProgram prog_;
  InstancesMix mix_;
};

// ---------------------------------------------------------------------------
// retina_coarse: the Figure 1 retina (v2) at 512x512; operators dominate.
// ---------------------------------------------------------------------------
class RetinaCoarse final : public Workload {
 public:
  explicit RetinaCoarse(uint64_t seed) {
    params_.width = params_.height = 512;
    params_.num_targets = 64;
    params_.num_iter = 4;
    params_.seed = seed;
    small_params_ = params_;
    small_params_.num_iter = 2;
    serve_params_ = params_;
    serve_params_.width = serve_params_.height = 64;
    serve_params_.num_targets = 8;
    serve_params_.num_iter = 1;

    register_builtin_operators(reg_);
    retina::register_retina_operators(reg_, params_);
    text_ = retina::retina_source(retina::RetinaVersion::kV2Balanced, params_);
    prog_ = compile_or_throw(text_, reg_);
    // Same operators (they read the model's size from the captured
    // parameters); only NUM_ITER differs.
    small_prog_ = compile_or_throw(
        retina::retina_source(retina::RetinaVersion::kV2Balanced, small_params_), reg_);

    register_builtin_operators(serve_reg_);
    retina::register_retina_operators(serve_reg_, serve_params_);
    serve_prog_ = compile_or_throw(
        retina::retina_source(retina::RetinaVersion::kV2Balanced, serve_params_), serve_reg_);
  }
  void prepare_oracles() override {
    expected_ = retina::checksum(retina::sequential_run(params_));
    expected_small_ = retina::checksum(retina::sequential_run(small_params_));
    expected_serve_ = retina::checksum(retina::sequential_run(serve_params_));
  }
  const OperatorRegistry& compile_registry() const override { return reg_; }
  const std::string& compile_text() const override { return text_; }
  const OperatorRegistry& run_registry() const override { return reg_; }

  double run_once(Runtime& rt, Report& rep) override {
    double ms = 0;
    const Value v = run_program(rt, prog_, &ms);
    rep.check(checksum_of(v) == expected_, "retina 512 checksum");
    return ms;
  }

  SimSample sim_once(const SimConfig& config, bool large, Report& rep) override {
    Value v;
    SimSample s = sim_run(reg_, config, large ? prog_ : small_prog_, "", {}, &v);
    rep.check(checksum_of(v) == (large ? expected_ : expected_small_), "sim retina checksum");
    return s;
  }

  const OperatorRegistry& serve_registry() const override { return serve_reg_; }
  InstanceRequest request(uint64_t) const override {
    InstanceRequest req;
    req.program = &serve_prog_;
    return req;
  }
  bool check_instance(uint64_t, const InstanceResult& r) const override {
    return r.outcome == InstanceOutcome::kCompleted && checksum_of(r.value) == expected_serve_;
  }
  size_t burst_size() const override { return 400; }
  double offered_rps() const override { return 2400; }

 private:
  static double checksum_of(const Value& v) {
    return v.kind() == Value::Kind::kBlock ? retina::checksum(v.block_as<retina::RetinaModel>()) : std::nan("");
  }

  retina::RetinaParams params_, small_params_, serve_params_;
  OperatorRegistry reg_, serve_reg_;
  std::string text_;
  CompiledProgram prog_, small_prog_, serve_prog_;
  double expected_ = 0, expected_small_ = 0, expected_serve_ = 0;
};

// ---------------------------------------------------------------------------
// compile_dcc: a generated program a quarter of Table 1's size, compiled
// sequentially and by the Delirium-coordinated parallel compiler of §6.
// ---------------------------------------------------------------------------

/// The generator seed of the one program compile_dcc compiles; the
/// run's seed only orders its function definitions.
constexpr uint64_t kDccProgram = 1;

dcc::GenParams dcc_params() {
  dcc::GenParams gen;
  gen.num_functions = 300;
  gen.body_size = 60;
  gen.num_macros = 30;
  gen.seed = kDccProgram;
  return gen;
}

/// A generated program with its function definitions in a seeded order.
/// Definitions may come in any order, so every order computes the same
/// value at the same compile cost. Macros stay first and main() last.
std::string shuffle_functions(const std::string& text, uint64_t seed) {
  std::vector<std::string> blocks;  // separated by blank lines
  for (size_t pos = 0; pos < text.size();) {
    const size_t blank = text.find("\n\n", pos);
    const size_t end = blank == std::string::npos ? text.size() : blank + 2;
    blocks.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  if (blocks.size() < 3) return text;
  std::vector<std::string> functions =
      shuffled(std::vector<std::string>(blocks.begin() + 1, blocks.end() - 1), seed);
  std::string out = blocks.front();
  for (const std::string& f : functions) out += f;
  return out + blocks.back();
}

/// Every optimization off: the compile the oracle is recorded with.
CompileOptions unoptimized() {
  CompileOptions copts;
  copts.optimize = false;
  copts.graph_opt = false;
  copts.analyze_unique = false;
  return copts;
}

/// The committed oracle: the value of the program's main().
int64_t load_dcc_expected() {
  std::ifstream in(std::string(DELBENCH_DATA_DIR) + "/dcc_expected.txt");
  if (!in) throw std::runtime_error("cannot read " DELBENCH_DATA_DIR "/dcc_expected.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int64_t value = 0;
    if (!(fields >> value)) throw std::runtime_error("bad dcc_expected line: " + line);
    return value;
  }
  throw std::runtime_error("dcc_expected.txt holds no value");
}

class CompileDcc final : public Workload {
 public:
  explicit CompileDcc(uint64_t seed) {
    text_ = shuffle_functions(dcc::generate_program(dcc_params()), seed);
    dcc::GenParams small;
    small.num_functions = 12;
    small.body_size = 20;
    small.num_macros = 2;
    small.seed = kDccProgram;
    small_text_ = shuffle_functions(dcc::generate_program(small), seed);

    register_builtin_operators(reg_);
    const CompileResult cold = compile_source("<gen>", text_, reg_);
    if (!cold.ok) throw std::runtime_error("compile_dcc: cold compile failed\n" + cold.diagnostics);

    CompileOptions coord_opts;
    coord_opts.optimize = false;  // the coordination framework is straight-line
    register_builtin_operators(run_reg_);
    dcc::register_dcc_operators(run_reg_, text_);
    coord_ = compile_or_throw(dcc::dcc_coordination_source(), run_reg_, coord_opts);
    register_builtin_operators(serve_reg_);
    dcc::register_dcc_operators(serve_reg_, small_text_);
    serve_coord_ = compile_or_throw(dcc::dcc_coordination_source(), serve_reg_, coord_opts);
    // Runs the compiled outputs for the oracles.
    eval_ = std::make_unique<Runtime>(reg_, RuntimeConfig{.num_workers = 4});
  }

  void prepare_oracles() override {
    expected_ = load_dcc_expected();
    expected_small_ = eval_->run(compile_or_throw(small_text_, reg_, unoptimized())).as_int();
  }

  const OperatorRegistry& compile_registry() const override { return reg_; }
  const std::string& compile_text() const override { return text_; }
  bool check_compile(const CompileResult& r, bool first) const override {
    if (!r.ok) return false;
    return !first || is_int(eval_->run(r.program), expected_);
  }
  const OperatorRegistry& run_registry() const override { return run_reg_; }

  double run_once(Runtime& rt, Report& rep) override {
    double ms = 0;
    const Value v = run_program(rt, coord_, &ms);
    rep.check(output_value(v) == expected_, "parallel compile");
    return ms;
  }

  SimSample sim_once(const SimConfig& config, bool large, Report& rep) override {
    Value v;
    SimSample s = sim_run(large ? run_reg_ : serve_reg_, config, large ? coord_ : serve_coord_,
                          "", {}, &v);
    rep.check(output_value(v) == (large ? expected_ : expected_small_), "sim parallel compile");
    return s;
  }

  const OperatorRegistry& serve_registry() const override { return serve_reg_; }
  InstanceRequest request(uint64_t) const override {
    InstanceRequest req;
    req.program = &serve_coord_;
    return req;
  }
  bool check_instance(uint64_t, const InstanceResult& r) const override {
    return r.outcome == InstanceOutcome::kCompleted && output_value(r.value) == expected_small_;
  }
  size_t burst_size() const override { return 100; }
  double offered_rps() const override { return 1000; }

 private:
  /// Value of main() in the program a DccOutput block carries, or a
  /// sentinel that matches no oracle.
  int64_t output_value(const Value& v) const {
    if (v.kind() != Value::Kind::kBlock) return INT64_MIN;
    const dcc::DccOutput& out = v.block_as<dcc::DccOutput>();
    if (!out.ok || !out.program) return INT64_MIN;
    const Value r = eval_->run(*out.program);
    return r.kind() == Value::Kind::kInt ? r.as_int() : INT64_MIN;
  }

  std::string text_, small_text_;
  OperatorRegistry reg_, run_reg_, serve_reg_;
  CompiledProgram coord_, serve_coord_;
  std::unique_ptr<Runtime> eval_;
  int64_t expected_ = 0, expected_small_ = 0;
};

}  // namespace

FixedCosts load_fixed_costs() {
  const std::string path = std::string(DELBENCH_DATA_DIR) + "/sim_costs.txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  FixedCosts costs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string op;
    Ticks ns = 0;
    if (!(fields >> op >> ns) || ns <= 0) throw std::runtime_error("bad sim_costs line: " + line);
    if (op == "*") {
      costs.default_ns = ns;
    } else {
      costs.per_op[op] = ns;
    }
  }
  return costs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fib_fine", "compile_dcc", "instances_mix",
                                                 "retina_coarse"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "fib_fine") return std::make_unique<FibFine>(seed);
  if (name == "retina_coarse") return std::make_unique<RetinaCoarse>(seed);
  if (name == "compile_dcc") return std::make_unique<CompileDcc>(seed);
  if (name == "instances_mix") return std::make_unique<InstancesMix>(seed);
  return nullptr;
}

int record_dcc_expected() {
  OperatorRegistry reg;
  register_builtin_operators(reg);
  Runtime rt(reg, RuntimeConfig{.num_workers = 4});
  const CompiledProgram prog =
      compile_or_throw(dcc::generate_program(dcc_params()), reg, unoptimized());
  std::printf("# compile_dcc oracle: value of main() of the generated program, compiled\n"
              "# with every optimization off. Any order of its functions gives it.\n"
              "%lld\n",
              static_cast<long long>(rt.run(prog).as_int()));
  return 0;
}

}  // namespace delbench
