// Self-tests of the benchmark's own arithmetic: exact percentiles,
// Python-compatible quartiles, span self time, and guarded ratios.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "spans.h"
#include "stats.h"

using namespace delbench;

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  const bool ok = (std::isnan(want) && std::isnan(got)) || got == want ||
                  std::fabs(got - want) <= 1e-9 * std::fmax(1.0, std::fabs(want));
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

SpanRecord span(uint64_t id, uint64_t parent, const char* name, int64_t start, int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_percentiles() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  expect_near(percentile(v, 0.0), 1, "p0 is the minimum");
  expect_near(percentile(v, 1.0), 5, "p100 is the maximum");
  expect_near(median(v), 3, "odd-count median");
  expect_near(median({1, 2, 3, 4}), 2.5, "even-count median interpolates");
  expect_near(percentile(v, 0.9), 4.6, "p90 interpolates between ranks");

  // 1000 distinct samples: p99 sits between the 990th and 991st values,
  // not on a power-of-two bucket edge.
  std::vector<double> many;
  for (int i = 1; i <= 1000; ++i) many.push_back(i);
  expect_near(percentile(many, 0.99), 990.01, "p99 of 1..1000");

  // A failed request counts as infinite latency and must stay infinite.
  std::vector<double> with_fail = {1, 2, 3, std::numeric_limits<double>::infinity()};
  expect_near(percentile(with_fail, 1.0), std::numeric_limits<double>::infinity(),
              "failed request is infinite");
  expect_near(percentile(with_fail, 0.5), 2.5, "failure beyond the median leaves it");
  expect_near(percentile({}, 0.5), std::nan(""), "empty set has no percentile");
}

void test_quartiles() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  const std::vector<double> q = quartiles_exclusive(v);
  expect_near(q[0], 2.75, "Q1 of 1..10");
  expect_near(q[1], 5.5, "Q2 of 1..10");
  expect_near(q[2], 8.25, "Q3 of 1..10");
  expect_near(relative_iqr(v), 5.5 / 5.5, "relative IQR of 1..10");
  // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
  const std::vector<double> two = quartiles_exclusive({3, 1});
  expect_near(two[0], 0.5, "Q1 of two samples extrapolates");
  expect_near(two[2], 3.5, "Q3 of two samples extrapolates");
}

void test_self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [90,120) (clipped at the root's end); a grandchild [12,18) under the
  // first child.
  const std::vector<SpanRecord> spans = {
      span(1, 0, "bench.leg", 0, 100),   span(2, 1, "lang.lex", 10, 30),
      span(3, 1, "lang.parse", 20, 50),  span(4, 1, "runtime.run", 90, 120),
      span(5, 2, "sema.env", 12, 18),
  };
  const std::map<uint64_t, int64_t> self = self_times(spans);
  expect_near(static_cast<double>(self.at(1)), 100 - 40 - 10, "root minus union of children");
  expect_near(static_cast<double>(self.at(2)), 20 - 6, "child minus its grandchild");
  expect_near(static_cast<double>(self.at(3)), 30, "leaf span is all self");
  expect_near(static_cast<double>(self.at(4)), 30, "leaf past parent's end keeps its own");
  const std::map<std::string, int64_t> layers = self_time_by_layer(spans);
  expect_near(static_cast<double>(layers.at("lang")), 14 + 30, "lang layer sums spans");
  expect_near(static_cast<double>(layers.at("bench")), 50, "bench layer");
  expect_near(span_layer("analysis.graph_opt") == "analysis", 1, "layer is the name prefix");

  // Nesting through the RAII recorder.
  SpanRecorder rec;
  active_recorder() = &rec;
  {
    Span outer("bench.outer", 7);
    Span inner("lang.inner");
  }
  active_recorder() = nullptr;
  const std::vector<SpanRecord> got = rec.spans();
  expect_near(static_cast<double>(got.size()), 2, "two spans recorded");
  expect_near(static_cast<double>(got[0].parent), static_cast<double>(got[1].id),
              "inner span's parent is the outer span");
  expect_near(static_cast<double>(got[0].run), 7, "child inherits the run id");
}

void test_ratios() {
  expect_near(ratio(6, 3), 2, "plain ratio");
  expect_near(ratio(1, 0), std::nan(""), "zero base is not a measurement");
  expect_near(ratio(std::numeric_limits<double>::infinity(), 2), std::nan(""),
              "infinite side is not a measurement");
  // 1000 ns run, 10 operator calls of 20 ns, 8 nodes: (1000 - 200) / 8.
  expect_near(overhead_ns_per_node(1000, 10, 20, 8), 100, "per-node overhead");
}

}  // namespace

int main() {
  test_percentiles();
  test_quartiles();
  test_self_time();
  test_ratios();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("delbench self-test: all checks passed\n");
  return 0;
}
