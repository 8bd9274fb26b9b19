// Reporting utilities shared by the bench harness and examples: aligned
// text tables (the paper's tables reproduced as console output), the
// paper-style node-timing report, and median-of-N measurement helpers.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/runtime/runtime.h"

namespace delirium::tools {

/// Simple aligned text table. Columns are sized to their widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;
  std::string to_string() const;

  /// Format helpers.
  static std::string ms(double value, int precision = 1);
  static std::string ratio(double value, int precision = 2);
  static std::string count(uint64_t value);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print §5.2's node-timing dump from a trace event stream: one
/// "call of <op> took <ns>" line per operator attempt (op_slices, in
/// completion order), optionally limited to the first `limit` lines.
void print_timing_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        const OperatorRegistry& registry, size_t limit = 0);

/// Print a RunStats block, one "name: value" per line (delc --stats).
/// The schema is identical for Runtime and SimRuntime runs; counters a
/// given executor does not exercise read zero.
void print_run_stats(std::ostream& os, const RunStats& stats);

/// Run `fn` `repeats` times and return the median of its returned values
/// (used to tame single-core measurement noise).
double median_of(int repeats, const std::function<double()>& fn);

}  // namespace delirium::tools
