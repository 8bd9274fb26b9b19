// delbench: the Delirium end-to-end benchmark.
//
//   delbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   delbench --record-dcc-expected      (prints data/dcc_expected.txt)
//
// The last stdout line is the result JSON; see BENCHMARK.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "legs.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "delbench: %s\n"
               "usage: delbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       delbench --record-dcc-expected\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Debug builds run the graph verifier inside compile_source, so
  // compile_ms would time a different program; asserts slow every layer.
  std::fprintf(stderr, "delbench: refusing to report from an assert-enabled build\n");
  return 2;
#endif
  delbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-dcc-expected") return delbench::record_dcc_expected();
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& name : delbench::workload_names()) known |= name == args.workload;
  if (!known) return usage(("unknown workload " + args.workload).c_str());
  try {
    return delbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "delbench: %s\n", e.what());
    return 1;
  }
}
