// Benchmark-side tracing: a span around every call the benchmark makes
// into a library layer. Spans live in memory and are written out when
// the run ends; a layer's self time is its span minus the part of that
// interval its child spans cover. Header-only so the self-test builds
// without the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace delbench {

struct SpanRecord {
  uint64_t id = 0;      // 1-based; 0 means "no span"
  uint64_t parent = 0;  // enclosing span on the same thread, or 0
  uint64_t run = 0;     // per-run id shared by a request's spans
  std::string name;     // "<layer>.<call>", e.g. "lang.lex"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

inline int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-safe span store. Span ids are handed out at open; records are
/// appended at close, so a record's children may precede it.
class SpanRecorder {
 public:
  uint64_t open() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void close(SpanRecord rec) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
  }
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  uint64_t next_run() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_run_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  uint64_t next_run_ = 0;
  std::vector<SpanRecord> spans_;
};

/// The active recorder (null = tracing off: a Span costs one branch).
inline SpanRecorder*& active_recorder() {
  static SpanRecorder* recorder = nullptr;
  return recorder;
}

/// RAII span. Nesting is per thread; a span opened on another thread
/// (an open-loop generator) starts its own tree unless given a parent.
class Span {
 public:
  explicit Span(std::string name, uint64_t run = 0) {
    SpanRecorder* rec = active_recorder();
    if (rec == nullptr) return;
    rec_.name = std::move(name);
    rec_.id = rec->open();
    rec_.parent = current();
    rec_.run = run != 0 ? run : current_run();
    rec_.start_ns = steady_ns();
    current() = rec_.id;
    current_run() = rec_.run;
  }
  ~Span() {
    SpanRecorder* rec = active_recorder();
    if (rec == nullptr || rec_.id == 0) return;
    rec_.end_ns = steady_ns();
    current() = rec_.parent;
    current_run() = saved_run_;
    rec->close(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static uint64_t& current() {
    thread_local uint64_t id = 0;
    return id;
  }
  static uint64_t& current_run() {
    thread_local uint64_t run = 0;
    return run;
  }
  SpanRecord rec_;
  uint64_t saved_run_ = current_run();
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own. Keyed by span id.
inline std::map<uint64_t, int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, int64_t> out;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

/// Layer of a span: the part of its name before the first '.'.
inline std::string span_layer(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Total self time per layer, in nanoseconds.
inline std::map<std::string, int64_t> self_time_by_layer(const std::vector<SpanRecord>& spans) {
  const std::map<uint64_t, int64_t> self = self_times(spans);
  std::map<std::string, int64_t> out;
  for (const SpanRecord& s : spans) out[span_layer(s.name)] += self.at(s.id);
  return out;
}

/// One JSON object per line: {"id","parent","run","name","start_ns","end_ns"}.
inline void write_spans_jsonl(std::ostream& os, const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& s : spans) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"run\":" << s.run
       << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

}  // namespace delbench
