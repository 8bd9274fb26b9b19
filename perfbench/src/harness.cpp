#include "harness.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace delbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (!quiet_ && failed_ <= 5) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Report::result_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<double> timed_reps(double budget_s, int min_reps, int max_reps,
                               const std::function<double()>& fn) {
  std::vector<double> samples;
  const double start = now_s();
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps || now_s() - start < budget_s)) {
    samples.push_back(fn());
  }
  return samples;
}

}  // namespace delbench
