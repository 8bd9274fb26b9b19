// Shared plumbing of the benchmark program: arguments, the result record
// and its one-line JSON, correctness accounting, and timed loops.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace delbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the metrics of the selected mode plus the
/// correctness tally every oracle check feeds.
class Report {
 public:
  /// A quiet report only counts (warm-up calls, before the oracles exist).
  explicit Report(bool quiet = false) : quiet_(quiet) {}
  void set(const std::string& name, double value, const std::string& unit);
  /// Record one checked operation; `what` names it in the first few
  /// mismatch messages on stderr.
  void check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_json() const;

 private:
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool quiet_ = false;
};

/// Monotonic seconds.
double now_s();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Call `fn` (which returns the milliseconds of its own timed section)
/// until `budget_s` has elapsed and at least `min_reps` samples exist,
/// stopping at `max_reps`. Returns the samples in call order.
std::vector<double> timed_reps(double budget_s, int min_reps, int max_reps,
                               const std::function<double()>& fn);

/// JSON number text with every significant digit ("null" for NaN/inf).
std::string json_number(double v);

}  // namespace delbench
