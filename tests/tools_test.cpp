// Tools module tests: report tables, per-operator aggregation of trace
// slices, medians, Chrome trace export, and the delc CLI contract.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

#include "src/delirium.h"
#include "src/tools/profile.h"
#include "src/tools/report.h"
#include "src/tools/trace.h"
#include "tests/test_util.h"

namespace delirium::tools {
namespace {

TEST(Table, AlignsColumnsAndBorders) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "22222"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name        | value |"), std::string::npos);
  EXPECT_NE(text.find("| longer-name | 22222 |"), std::string::npos);
  EXPECT_NE(text.find("+-------------+-------+"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NE(table.to_string().find("only"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::ms(1.2345), "1.2");
  EXPECT_EQ(Table::ms(1.2345, 3), "1.234");
  EXPECT_EQ(Table::ratio(2.5), "2.50x");
  EXPECT_EQ(Table::count(42), "42");
}

TEST(Aggregate, ComputesPerOpStats) {
  auto reg = testing::named_registry({"op_a", "op_b"});
  const CostProfile profile = profile_from_trace(
      testing::op_pair_events({{0, 0, 0, 100}, {0, 1, 0, 300}, {1, 0, 100, 50}}), *reg);
  const LogHistogram& a = profile.operators.at("op_a");
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.total(), 400);
  EXPECT_EQ(a.min(), 100);
  EXPECT_EQ(a.max(), 300);
  EXPECT_EQ(profile.operators.at("op_b").count(), 1u);
}

TEST(Aggregate, PrintTraceRespectsLimit) {
  auto reg = testing::named_registry({"op"});
  std::vector<testing::SliceSpec> slices;
  for (int i = 0; i < 10; ++i) slices.push_back({0, 0, 10 * i, 5});
  std::ostringstream os;
  print_timing_trace(os, testing::op_pair_events(slices), *reg, 3);
  EXPECT_NE(os.str().find("call of op took 5"), std::string::npos);
  EXPECT_NE(os.str().find("(7 more)"), std::string::npos);
}

TEST(Median, OddAndRepeatable) {
  int calls = 0;
  const double m = median_of(5, [&] {
    ++calls;
    return static_cast<double>(calls);  // 1..5
  });
  EXPECT_EQ(calls, 5);
  EXPECT_DOUBLE_EQ(m, 3.0);
}

TEST(Trace, EmitsValidShapedJson) {
  auto reg = testing::named_registry({"alpha", "beta \"q\""});
  std::ostringstream os;
  write_trace_events(os, testing::op_pair_events({{0, 0, 0, 1500}, {1, 1, 0, 2500}}), *reg);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("name": "alpha")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph": "X")"), std::string::npos);
  EXPECT_NE(json.find(R"(\"q\")"), std::string::npos);  // escaped quote
  EXPECT_NE(json.find(R"("tid": 1)"), std::string::npos);
}

TEST(Trace, RoundTripFromARealRun) {
  OperatorRegistry registry;
  register_builtin_operators(registry);
  CompiledProgram program = compile_or_throw(
      "main() iterate { i = 0, incr(i) } while less_than(i, 20), result i", registry);
  RuntimeConfig config{.num_workers = 2};
  config.enable_tracing = true;
  Runtime runtime(registry, config);
  runtime.run(program);
  const size_t slices = op_slices(runtime.trace_events()).size();
  ASSERT_GT(slices, 0u);
  const std::string path = ::testing::TempDir() + "/delirium_trace_test.json";
  ASSERT_TRUE(write_trace_events_file(path, runtime.trace_events(), registry));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("incr"), std::string::npos);
  // Crude balance check: events exist for the run.
  EXPECT_GE(std::count(content.begin(), content.end(), '{'), static_cast<long>(slices));
}

// ---------------------------------------------------------------------------
// CLI documentation contract
// ---------------------------------------------------------------------------

// Every `--flag` token in a text, e.g. "--trace-events".
std::set<std::string> flag_tokens(const std::string& text) {
  std::set<std::string> flags;
  for (size_t i = 0; i + 2 < text.size(); ++i) {
    if (text[i] != '-' || text[i + 1] != '-' || !std::islower(text[i + 2])) continue;
    size_t end = i + 2;
    while (end < text.size() && (std::islower(text[end]) || text[end] == '-')) ++end;
    flags.insert(text.substr(i, end - i));
    i = end;
  }
  return flags;
}

TEST(Cli, HelpNamesEveryDocumentedFlag) {
  // delc --help and docs/CLI.md must name exactly the same flag set —
  // a flag added to one without the other fails here.
  FILE* pipe = ::popen((std::string(DELIRIUM_DELC_PATH) + " --help").c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string help;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) help.append(buf, n);
  ASSERT_EQ(::pclose(pipe), 0);
  ASSERT_FALSE(help.empty());

  std::ifstream doc(std::string(DELIRIUM_DOCS_DIR) + "/CLI.md");
  ASSERT_TRUE(doc.good()) << "missing docs/CLI.md";
  std::string cli_md((std::istreambuf_iterator<char>(doc)),
                     std::istreambuf_iterator<char>());

  const std::set<std::string> help_flags = flag_tokens(help);
  const std::set<std::string> doc_flags = flag_tokens(cli_md);
  ASSERT_FALSE(help_flags.empty());
  for (const std::string& flag : help_flags) {
    EXPECT_TRUE(doc_flags.count(flag)) << flag << " missing from docs/CLI.md";
  }
  for (const std::string& flag : doc_flags) {
    EXPECT_TRUE(help_flags.count(flag)) << flag << " missing from delc --help";
  }
  // The env knobs must be documented alongside the flags.
  for (const char* env : {"DELIRIUM_EXECUTOR", "DELIRIUM_INJECT_FAULTS",
                          "DELIRIUM_RETRIES", "DELIRIUM_TRACE",
                          "DELIRIUM_TRACE_CAPACITY"}) {
    EXPECT_NE(cli_md.find(env), std::string::npos) << env << " missing from docs/CLI.md";
    EXPECT_NE(help.find(env), std::string::npos) << env << " missing from delc --help";
  }
}

// Run `command` through the shell; returns {exit status, combined stdout}.
std::pair<int, std::string> run_command(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(Cli, ExecutorFlagSelectsEngine) {
  const std::string program = ::testing::TempDir() + "/delc_executor_test.dlr";
  {
    std::ofstream out(program);
    out << "main() add(40, 2)\n";
  }
  const std::string delc = std::string(DELIRIUM_DELC_PATH);

  // --executor sim rewrites --run onto the simulator (makespan line).
  auto [sim_status, sim_out] =
      run_command("env -u DELIRIUM_EXECUTOR " + delc + " --run --executor sim " + program);
  EXPECT_EQ(sim_status, 0);
  EXPECT_NE(sim_out.find("result: 42"), std::string::npos) << sim_out;
  EXPECT_NE(sim_out.find("virtual makespan"), std::string::npos) << sim_out;

  // The --executor=E form works, and threaded rewrites --sim back.
  auto [thr_status, thr_out] = run_command("env -u DELIRIUM_EXECUTOR " + delc +
                                           " --sim 4 --executor=threaded " + program);
  EXPECT_EQ(thr_status, 0);
  EXPECT_NE(thr_out.find("result: 42"), std::string::npos) << thr_out;
  EXPECT_EQ(thr_out.find("virtual makespan"), std::string::npos) << thr_out;

  // DELIRIUM_EXECUTOR wins over the flag.
  auto [env_status, env_out] = run_command("env DELIRIUM_EXECUTOR=sim " + delc +
                                           " --run --executor threaded " + program);
  EXPECT_EQ(env_status, 0);
  EXPECT_NE(env_out.find("virtual makespan"), std::string::npos) << env_out;

  // Unknown engines are a usage error.
  auto [bad_status, bad_out] =
      run_command("env -u DELIRIUM_EXECUTOR " + delc + " --executor warp " + program +
                  " 2>/dev/null");
  EXPECT_EQ(bad_status, 2) << bad_out;
}

TEST(Cli, AnalyzeJsonIsDeterministicAcrossSchedulersAndWorkers) {
  // The fact table is a pure function of (program, operator table):
  // scheduling knobs, worker counts, and executor env must not move a
  // byte of the --analyze report.
  const std::string program = ::testing::TempDir() + "/delc_analyze_test.dlr";
  {
    std::ofstream out(program);
    out << "fortytwo() mul(6, 7)\n"
        << "main()\n"
        << "  let f(x, y) x\n"
        << "  in f(fortytwo(), 3)\n";
  }
  const std::string delc = std::string(DELIRIUM_DELC_PATH);
  const std::string base = " " + delc + " --analyze --format json --no-opt " + program;

  auto [ref_status, ref] = run_command("env -u DELIRIUM_AFFINITY " + base);
  EXPECT_EQ(ref_status, 0);
  EXPECT_NE(ref.find("\"facts\""), std::string::npos) << ref;
  for (const char* env :
       {"DELIRIUM_AFFINITY=operator", "DELIRIUM_AFFINITY=data", "DELIRIUM_EXECUTOR=sim",
        "DELIRIUM_COST_HINTS=0"}) {
    auto [status, out] = run_command("env " + std::string(env) + base);
    EXPECT_EQ(status, 0) << env;
    EXPECT_EQ(out, ref) << env;
  }

  // Text mode goes through the same facts table; spot-check its sections.
  auto [text_status, text] = run_command("env -u DELIRIUM_AFFINITY " + delc +
                                         " --analyze --no-opt " + program);
  EXPECT_EQ(text_status, 0);
  EXPECT_NE(text.find("analysis: template 'main'"), std::string::npos) << text;
  EXPECT_NE(text.find("dead params"), std::string::npos) << text;

  // The master kill switch removes the facts payload but keeps the
  // shared lint schema valid.
  auto [off_status, off] = run_command("env DELIRIUM_GRAPH_FACTS=0" + base);
  EXPECT_EQ(off_status, 0);
  EXPECT_NE(off.find("\"enabled\": false"), std::string::npos) << off;
  EXPECT_NE(off.find("\"findings\""), std::string::npos) << off;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// Every `"name": {"count": N, "total_ns": T` row of a metrics JSON's
// operators section, as name -> {count, total_ns}.
std::map<std::string, std::pair<uint64_t, int64_t>> metrics_operators(
    const std::string& json) {
  const size_t begin = json.find("\"operators\": {");
  const std::string section = json.substr(begin, json.find("\n  }", begin) - begin);
  std::map<std::string, std::pair<uint64_t, int64_t>> ops;
  const std::regex row(R"re("([^"]+)": \{"count": (\d+), "total_ns": (\d+))re");
  for (std::sregex_iterator it(section.begin(), section.end(), row), end; it != end; ++it) {
    ops[(*it)[1]] = {std::stoull((*it)[2]), std::stoll((*it)[3])};
  }
  return ops;
}

// name -> count of every operator of a cost profile JSON.
std::map<std::string, uint64_t> profile_counts(const std::string& json) {
  std::map<std::string, uint64_t> counts;
  const std::regex row(R"re("([^"]+)": \{\s*"count": (\d+))re");
  for (std::sregex_iterator it(json.begin(), json.end(), row), end; it != end; ++it) {
    counts[(*it)[1]] = std::stoull((*it)[2]);
  }
  return counts;
}

TEST(Cli, MetricsCountEveryOperatorAttemptOnBothExecutors) {
  // --metrics and --profile-out read the trace's operator slices: one per
  // attempt, so a fault-free run counts each operator's invocations, and
  // the slices add up to the operator_ticks that --stats prints. Both
  // hold for an instance session (reported once the session closes) and
  // when full trace rings overwrite most of the events.
  const std::string program = ::testing::TempDir() + "/delc_metrics_test.dlr";
  {
    std::ofstream out(program);
    out << "sq(x) mul(x, x)\n"
        << "count(n) iterate { i = 0, incr(i) } while less_than(i, n), result i\n"
        << "main() add(sq(count(10)), 1)\n";
  }
  const std::string metrics = ::testing::TempDir() + "/delc_metrics_test.json";
  const std::string profile = ::testing::TempDir() + "/delc_metrics_test_profile.json";
  const std::map<std::string, uint64_t> invocations = {
      {"add", 1}, {"incr", 10}, {"less_than", 11}, {"mul", 1}};
  struct Case {
    std::string env;
    std::string flags;
    uint64_t runs;
  };
  const std::vector<Case> cases = {
      {"-u DELIRIUM_TRACE_CAPACITY", "--run --workers 2", 1},
      {"-u DELIRIUM_TRACE_CAPACITY", "--sim 4", 1},
      {"-u DELIRIUM_TRACE_CAPACITY", "--run --workers 2 --instances 2", 2},
      {"-u DELIRIUM_TRACE_CAPACITY", "--sim 4 --instances 2", 2},
      {"DELIRIUM_TRACE_CAPACITY=16", "--run --workers 2", 1},
      {"DELIRIUM_TRACE_CAPACITY=16", "--run --workers 1 --instances 3", 3},
  };
  for (const Case& c : cases) {
    const std::string name = c.env + " " + c.flags;
    std::remove(metrics.c_str());
    std::remove(profile.c_str());
    auto [status, out] = run_command(
        "env -u DELIRIUM_TRACE -u DELIRIUM_EXECUTOR " + c.env + " " +
        std::string(DELIRIUM_DELC_PATH) + " " + c.flags + " --stats --metrics " + metrics +
        " --profile-out " + profile + " " + program + " 2>/dev/null");
    ASSERT_EQ(status, 0) << name << "\n" << out;
    EXPECT_NE(out.find("result: 101"), std::string::npos) << out;
    std::map<std::string, uint64_t> expected;
    for (const auto& [op, n] : invocations) expected[op] = n * c.runs;
    const std::string json = read_file(metrics);
    int64_t total_ns = 0;
    std::map<std::string, uint64_t> counts;
    for (const auto& [op, row] : metrics_operators(json)) {
      counts[op] = row.first;
      total_ns += row.second;
    }
    EXPECT_EQ(counts, expected) << name << "\n" << json;
    EXPECT_EQ(profile_counts(read_file(profile)), expected) << name;
    std::smatch ticks;
    ASSERT_TRUE(std::regex_search(out, ticks, std::regex(R"(operator_ticks:\s+(\d+))")))
        << out;
    EXPECT_GT(std::stoll(ticks[1]), 0) << name;
    EXPECT_EQ(std::stoll(ticks[1]), total_ns) << name;
  }
}

TEST(Cli, TraceRingLossIsReported) {
  // A full trace ring overwrites its oldest events. Counts and profiles
  // keep them (the ring folds what it overwrites), but the --trace-events
  // timeline cannot, so delc says so on stderr.
  const std::string delc = "env -u DELIRIUM_TRACE -u DELIRIUM_EXECUTOR " +
                           std::string(DELIRIUM_DELC_PATH) + " --run --workers 1 ";
  const std::string outputs = ::testing::TempDir() + "/delc_ring_loss_test.json " +
                              std::string(DELIRIUM_PROGRAMS_DIR) + "/fib.dlr 2>&1 >/dev/null";
  const std::regex warning(
      R"(delc: warning: full trace rings overwrote \d+ events.*DELIRIUM_TRACE_CAPACITY)");
  auto [small_status, small] =
      run_command("DELIRIUM_TRACE_CAPACITY=16 " + delc + "--trace-events " + outputs);
  EXPECT_EQ(small_status, 0) << small;
  EXPECT_EQ(std::distance(std::sregex_iterator(small.begin(), small.end(), warning),
                          std::sregex_iterator()),
            1)
      << small;

  for (const char* exact : {"--metrics ", "--profile-out "}) {
    auto [status, out] = run_command("DELIRIUM_TRACE_CAPACITY=16 " + delc + exact + outputs);
    EXPECT_EQ(status, 0) << out;
    EXPECT_EQ(out.find("warning"), std::string::npos) << exact << out;
  }

  auto [default_status, full] =
      run_command("env -u DELIRIUM_TRACE_CAPACITY " + delc + "--trace-events " + outputs);
  EXPECT_EQ(default_status, 0) << full;
  EXPECT_EQ(full.find("DELIRIUM_TRACE_CAPACITY"), std::string::npos) << full;
}

}  // namespace
}  // namespace delirium::tools
