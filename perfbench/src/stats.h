// Sample arithmetic for the benchmark: exact percentiles from sorted raw
// samples (never bucketed), quartile spread, and guarded ratios.
// Header-only so the self-test builds without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace delbench {

/// Exact percentile of raw samples, linear interpolation between closest
/// ranks (numpy's default, Python's statistics.quantiles "inclusive").
/// `q` is in [0, 1]. An empty sample set yields NaN.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  if (q <= 0) return samples.front();
  if (q >= 1) return samples.back();
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples.size()) return samples[lo];
  // An infinite neighbour (a failed request) stays infinite rather than
  // turning into NaN through inf * 0.
  if (frac == 0) return samples[lo];
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

inline double median(const std::vector<double>& samples) { return percentile(samples, 0.5); }

/// Python's statistics.quantiles(values, n=4) (method "exclusive"): the
/// three cut points. Needs at least two samples; fewer yields NaNs.
inline std::vector<double> quartiles_exclusive(std::vector<double> v) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (v.size() < 2) return {nan, nan, nan};
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1;
  std::vector<double> out;
  for (int i = 1; i < 4; ++i) {
    const double pos = i * m / 4;  // 1-based
    // Clamping before taking the offset lets the ends extrapolate, as
    // Python does.
    const long j = std::clamp(static_cast<long>(std::floor(pos)), 1L,
                              static_cast<long>(v.size()) - 1);
    const double delta = pos - static_cast<double>(j);
    out.push_back(v[j - 1] + delta * (v[j] - v[j - 1]));
  }
  return out;
}

/// Quartile spread as a share of the median: (Q3 - Q1) / median.
inline double relative_iqr(const std::vector<double>& v) {
  const std::vector<double> q = quartiles_exclusive(v);
  return q[1] != 0 ? (q[2] - q[0]) / q[1] : std::numeric_limits<double>::quiet_NaN();
}

/// a / b, or NaN when b is zero or either side is not finite — a ratio
/// with a missing base must not masquerade as a measurement.
inline double ratio(double a, double b) {
  if (b == 0 || !std::isfinite(a) || !std::isfinite(b)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return a / b;
}

/// Per-node runtime overhead (the paper's §7 figure): wall time not spent
/// inside operators, per executed node.
inline double overhead_ns_per_node(double run_ns, double invocations, double op_call_ns,
                                   double nodes) {
  return ratio(run_ns - invocations * op_call_ns, nodes);
}

}  // namespace delbench
