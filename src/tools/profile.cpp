#include "src/tools/profile.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace delirium::tools {

// ---------------------------------------------------------------------------
// Building a profile from a trace
// ---------------------------------------------------------------------------

CostProfile profile_from_trace(const std::vector<TraceEvent>& events,
                               const OperatorRegistry& registry) {
  std::vector<TraceEvent> sorted = events;
  sort_trace_events(sorted);

  CostProfile profile;
  add_named(profile.operators, op_histograms(sorted), registry);
  return profile;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

void write_cost_profile(std::ostream& os, const CostProfile& profile) {
  os << "{\n  \"schema\": \"delirium.cost_profile\",\n  \"version\": "
     << kCostProfileVersion << ",\n  \"operators\": {";
  size_t i = 0;
  for (const auto& [op, h] : profile.operators) {
    os << (i++ == 0 ? "\n" : ",\n") << "    \"";
    write_escaped(os, op);
    os << "\": {\n      \"count\": " << h.count() << ",\n      \"total_ns\": " << h.total()
       << ",\n      \"min_ns\": " << h.min() << ",\n      \"max_ns\": " << h.max()
       << ",\n      \"buckets\": {";
    size_t j = 0;
    const auto& buckets = h.buckets();
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) continue;
      os << (j++ == 0 ? "" : ", ") << "\"" << b << "\": " << buckets[b];
    }
    os << "}\n    }";
  }
  os << (i == 0 ? "}\n}\n" : "\n  }\n}\n");
}

std::string cost_profile_to_json(const CostProfile& profile) {
  std::ostringstream os;
  write_cost_profile(os, profile);
  return os.str();
}

bool write_cost_profile_file(const std::string& path, const CostProfile& profile) {
  std::ofstream out(path);
  if (!out) return false;
  write_cost_profile(out, profile);
  return out.good();
}

// ---------------------------------------------------------------------------
// Parsing — a minimal JSON reader specialized to the schema above. Every
// error names the offending field path so a bad hand-edited profile is
// diagnosable ("cost profile: operators.add.count: ...").
// ---------------------------------------------------------------------------

namespace {

class ProfileParser {
 public:
  explicit ProfileParser(const std::string& text) : text_(text) {}

  CostProfile parse() {
    CostProfile profile;
    bool saw_schema = false, saw_version = false, saw_operators = false;
    expect('{', "cost profile");
    while (true) {
      skip_ws();
      if (peek() == '}') break;
      const std::string key = parse_string("cost profile");
      expect(':', key);
      if (key == "schema") {
        const std::string schema = parse_string(key);
        if (schema != "delirium.cost_profile") {
          fail(key, "expected \"delirium.cost_profile\", got \"" + schema + "\"");
        }
        saw_schema = true;
      } else if (key == "version") {
        const int64_t version = parse_int(key);
        if (version != kCostProfileVersion) {
          fail(key, "unsupported version " + std::to_string(version) + " (expected " +
                        std::to_string(kCostProfileVersion) + ")");
        }
        saw_version = true;
      } else if (key == "operators") {
        parse_operators(profile);
        saw_operators = true;
      } else {
        fail(key, "unknown field");
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    expect('}', "cost profile");
    if (!saw_schema) fail("schema", "missing field");
    if (!saw_version) fail("version", "missing field");
    if (!saw_operators) fail("operators", "missing field");
    skip_ws();
    if (pos_ != text_.size()) fail("cost profile", "trailing content after the object");
    return profile;
  }

 private:
  void parse_operators(CostProfile& profile) {
    expect('{', "operators");
    while (true) {
      skip_ws();
      if (peek() == '}') break;
      const std::string op = parse_string("operators");
      const std::string path = "operators." + op;
      expect(':', path);
      parse_operator(profile, op, path);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    expect('}', "operators");
  }

  void parse_operator(CostProfile& profile, const std::string& op, const std::string& path) {
    int64_t count = -1, total = -1, min = -1, max = -1;
    std::array<uint64_t, LogHistogram::kBuckets> buckets{};
    bool saw_buckets = false;
    expect('{', path);
    while (true) {
      skip_ws();
      if (peek() == '}') break;
      const std::string key = parse_string(path);
      const std::string field = path + "." + key;
      expect(':', field);
      if (key == "count") {
        count = parse_non_negative(field);
      } else if (key == "total_ns") {
        total = parse_non_negative(field);
      } else if (key == "min_ns") {
        min = parse_non_negative(field);
      } else if (key == "max_ns") {
        max = parse_non_negative(field);
      } else if (key == "buckets") {
        parse_buckets(buckets, field);
        saw_buckets = true;
      } else {
        fail(field, "unknown field");
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    expect('}', path);
    if (count < 0) fail(path + ".count", "missing field");
    if (total < 0) fail(path + ".total_ns", "missing field");
    if (min < 0) fail(path + ".min_ns", "missing field");
    if (max < 0) fail(path + ".max_ns", "missing field");
    if (!saw_buckets) fail(path + ".buckets", "missing field");
    if (count > 0 && min > max) fail(path + ".min_ns", "exceeds max_ns");
    uint64_t bucket_sum = 0;
    for (const uint64_t b : buckets) bucket_sum += b;
    if (bucket_sum != static_cast<uint64_t>(count)) {
      fail(path + ".count", "does not match the bucket sum (" +
                                std::to_string(bucket_sum) + ")");
    }
    profile.operators[op] = LogHistogram::restore(
        buckets, static_cast<uint64_t>(count), total, min, max);
  }

  void parse_buckets(std::array<uint64_t, LogHistogram::kBuckets>& buckets,
                     const std::string& path) {
    expect('{', path);
    while (true) {
      skip_ws();
      if (peek() == '}') break;
      const std::string key = parse_string(path);
      const std::string field = path + "." + key;
      expect(':', field);
      int64_t index = -1;
      if (!key.empty() && key.find_first_not_of("0123456789") == std::string::npos &&
          key.size() <= 2) {
        index = std::stoll(key);
      }
      if (index < 0 || index >= static_cast<int64_t>(LogHistogram::kBuckets)) {
        fail(field, "bucket index out of range (0.." +
                        std::to_string(LogHistogram::kBuckets - 1) + ")");
      }
      buckets[static_cast<size_t>(index)] =
          static_cast<uint64_t>(parse_non_negative(field));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    expect('}', path);
  }

  // -- lexing helpers --------------------------------------------------------

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) return '\0';
    return text_[pos_];
  }

  void expect(char c, const std::string& path) {
    skip_ws();
    if (peek() != c) {
      fail(path, std::string("expected '") + c + "'" +
                     (pos_ < text_.size()
                          ? std::string(", got '") + text_[pos_] + "'"
                          : std::string(", got end of input")));
    }
    ++pos_;
  }

  std::string parse_string(const std::string& path) {
    expect('"', path);
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out += c;
    }
    if (pos_ >= text_.size()) fail(path, "unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  int64_t parse_int(const std::string& path) {
    skip_ws();
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    const std::string digits = text_.substr(start, pos_ - start);
    if (digits.empty() || digits == "-") fail(path, "expected an integer");
    if (digits.size() > 19) fail(path, "integer out of range");
    try {
      return std::stoll(digits);
    } catch (const std::exception&) {
      fail(path, "integer out of range");
    }
    return 0;  // unreachable
  }

  int64_t parse_non_negative(const std::string& path) {
    const int64_t v = parse_int(path);
    if (v < 0) fail(path, "must be non-negative");
    return v;
  }

  [[noreturn]] void fail(const std::string& path, const std::string& message) {
    throw std::invalid_argument("cost profile: " + path + ": " + message);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

CostProfile load_cost_profile(const std::string& text) {
  return ProfileParser(text).parse();
}

CostProfile load_cost_profile_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read cost profile '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_cost_profile(buffer.str());
}

// ---------------------------------------------------------------------------
// Distillation
// ---------------------------------------------------------------------------

int64_t profile_mean_ns(const LogHistogram& h) {
  if (h.count() == 0) return 1;
  return std::max<int64_t>(1, h.total() / static_cast<int64_t>(h.count()));
}

namespace {

int64_t overall_mean_ns(const CostProfile& profile) {
  int64_t total = 0;
  uint64_t count = 0;
  for (const auto& [op, h] : profile.operators) {
    total += h.total();
    count += h.count();
  }
  if (count == 0) return 1;
  return std::max<int64_t>(1, total / static_cast<int64_t>(count));
}

}  // namespace

CostModel to_cost_model(const CostProfile& profile) {
  CostModel model;
  model.default_cost_ns = overall_mean_ns(profile);
  for (const auto& [op, h] : profile.operators) {
    model.op_cost_ns[op] = profile_mean_ns(h);
  }
  return model;
}

std::unordered_map<std::string, Ticks> fixed_costs_from(const CostProfile& profile) {
  std::unordered_map<std::string, Ticks> fixed;
  fixed.reserve(profile.operators.size());
  for (const auto& [op, h] : profile.operators) {
    fixed[op] = profile_mean_ns(h);
  }
  return fixed;
}

int64_t budget_from_profile(const CostProfile& profile) {
  int64_t budget = 0;
  for (const auto& [op, h] : profile.operators) {
    budget += static_cast<int64_t>(h.count()) * h.percentile(0.99);
  }
  // The histograms only see operator bodies; graph dispatch (calls,
  // parameter delivery, scheduling) is invisible to them and dominates
  // fine-grained programs — a p99 sum alone cancels healthy instances.
  // 8x headroom keeps the ceiling real (runaways exceed any constant
  // multiple) without tripping on dispatch overhead.
  return budget > 0 ? kBudgetHeadroom * budget : 0;
}

// ---------------------------------------------------------------------------
// Capacity planning
// ---------------------------------------------------------------------------

std::vector<int> default_plan_workers() { return {1, 2, 4, 8, 16, 32, 64}; }

CapacityPlan plan_capacity(const CompiledProgram& program,
                           const OperatorRegistry& registry, const CostProfile& profile,
                           const std::vector<int>& workers, int64_t target_ns) {
  const std::unordered_map<std::string, Ticks> fixed = fixed_costs_from(profile);
  const Ticks default_cost = overall_mean_ns(profile);
  auto makespan_at = [&](int num_procs) -> int64_t {
    SimConfig config;
    config.num_procs = num_procs;
    config.fixed_costs = &fixed;
    config.fixed_cost_default_ns = default_cost;
    SimRuntime sim(registry, config);
    return sim.run(program).makespan;
  };

  CapacityPlan plan;
  plan.target_ns = target_ns;
  plan.serial_makespan_ns = makespan_at(1);
  for (const int w : workers) {
    PlanPoint point;
    point.workers = w;
    point.makespan_ns = w == 1 ? plan.serial_makespan_ns : makespan_at(w);
    point.speedup = point.makespan_ns > 0
                        ? static_cast<double>(plan.serial_makespan_ns) /
                              static_cast<double>(point.makespan_ns)
                        : 1.0;
    point.efficiency = point.speedup / static_cast<double>(w);
    plan.points.push_back(point);
  }
  for (const PlanPoint& p : plan.points) {
    if (plan.best_workers == 0 || p.makespan_ns < plan.best_makespan_ns) {
      plan.best_makespan_ns = p.makespan_ns;
      plan.best_workers = p.workers;
    }
  }
  for (const PlanPoint& p : plan.points) {
    // Knee: the cheapest machine within 5% of the best predicted makespan.
    if (plan.knee_workers == 0 && p.makespan_ns * 100 <= plan.best_makespan_ns * 105) {
      plan.knee_workers = p.workers;
    }
    if (target_ns > 0 && plan.target_workers == 0 && p.makespan_ns <= target_ns) {
      plan.target_workers = p.workers;
    }
  }
  return plan;
}

}  // namespace delirium::tools
