#include "src/runtime/tracing.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace delirium {

std::string_view trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kOpBegin: return "op_begin";
    case TraceEventKind::kOpEnd: return "op_end";
    case TraceEventKind::kSteal: return "steal";
    case TraceEventKind::kStealFail: return "steal_fail";
    case TraceEventKind::kPark: return "park";
    case TraceEventKind::kWake: return "wake";
    case TraceEventKind::kInject: return "inject";
    case TraceEventKind::kFaultRaise: return "fault_raise";
    case TraceEventKind::kRetry: return "retry";
    case TraceEventKind::kPurge: return "purge";
    case TraceEventKind::kWatchdog: return "watchdog";
  }
  return "unknown";
}

void LogHistogram::observe(int64_t value_ns) {
  if (value_ns < 0) value_ns = 0;
  if (count_ == 0) {
    min_ = max_ = value_ns;
  } else {
    min_ = std::min(min_, value_ns);
    max_ = std::max(max_, value_ns);
  }
  ++count_;
  total_ += value_ns;
  const size_t bucket = std::bit_width(static_cast<uint64_t>(value_ns));
  ++buckets_[std::min(bucket, buckets_.size() - 1)];
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_ += other.total_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LogHistogram LogHistogram::restore(const std::array<uint64_t, kBuckets>& buckets,
                                   uint64_t count, int64_t total, int64_t min,
                                   int64_t max) {
  LogHistogram h;
  h.buckets_ = buckets;
  h.count_ = count;
  h.total_ = total;
  h.min_ = min;
  h.max_ = max;
  return h;
}

int64_t LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Upper bound of bucket i: values with bit width i are < 2^i.
      return i == 0 ? 0 : static_cast<int64_t>((uint64_t{1} << i) - 1);
    }
  }
  return max_;
}

namespace {

/// `by_op[op]`, growing `by_op` to hold it; null for a negative index.
LogHistogram* op_slot(std::vector<LogHistogram>& by_op, int32_t op) {
  if (op < 0) return nullptr;
  if (static_cast<size_t>(op) >= by_op.size()) by_op.resize(static_cast<size_t>(op) + 1);
  return &by_op[static_cast<size_t>(op)];
}

}  // namespace

std::vector<OpSlice> op_slices(const std::vector<TraceEvent>& events) {
  OpSlicer slicer;
  OpSlice s;
  std::vector<OpSlice> slices;
  slices.reserve(events.size() / 2);
  for (const TraceEvent& e : events) {
    if (slicer.feed(e, s)) slices.push_back(s);
  }
  return slices;
}

std::vector<LogHistogram> op_histograms(const std::vector<TraceEvent>& events) {
  OpSlicer slicer;
  OpSlice s;
  std::vector<LogHistogram> by_op;
  for (const TraceEvent& e : events) {
    if (!slicer.feed(e, s)) continue;
    if (LogHistogram* h = op_slot(by_op, s.op)) h->observe(s.duration);
  }
  return by_op;
}

void TraceRing::init(size_t capacity) {
  if (capacity < 16) capacity = 16;
  capacity = std::bit_ceil(capacity);
  buf_.assign(capacity, TraceEvent{});
  mask_ = capacity - 1;
  clear();
}

void TraceRing::clear() {
  head_ = 0;
  retired_.clear();
  lost_.clear();
}

void TraceRing::retire(const TraceEvent& e) {
  OpSlice s;
  if (!retired_.feed(e, s)) return;
  if (LogHistogram* h = op_slot(lost_, s.op)) h->observe(s.duration);
}

void TraceRing::collect(std::vector<TraceEvent>& out) const {
  const uint64_t n = size();
  const uint64_t first = head_ - n;
  out.reserve(out.size() + n);
  for (uint64_t i = 0; i < n; ++i) out.push_back(buf_[(first + i) & mask_]);
}

void TraceRing::overwritten_slices(std::vector<LogHistogram>& by_op) const {
  if (overwritten() == 0) return;
  for (size_t op = 0; op < lost_.size(); ++op) {
    if (lost_[op].count() > 0) op_slot(by_op, static_cast<int32_t>(op))->merge(lost_[op]);
  }
  // Replay the retained events on top of the overwritten begins still
  // open. A ring holds one worker's events, so begins opened inside the
  // window sit above the overwritten ones: an end that closes something
  // while no window begin is open closes an overwritten begin, which
  // op_slices on the window alone would skip.
  OpSlicer carry = retired_;
  uint64_t window_open = 0;
  OpSlice s;
  const uint64_t first = head_ - size();
  for (uint64_t i = first; i < head_; ++i) {
    const TraceEvent& e = buf_[i & mask_];
    if (e.kind == TraceEventKind::kOpBegin) ++window_open;
    if (!carry.feed(e, s)) continue;
    if (window_open > 0) {
      --window_open;
    } else if (LogHistogram* h = op_slot(by_op, s.op)) {
      h->observe(s.duration);
    }
  }
}

void sort_trace_events(std::vector<TraceEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
}

}  // namespace delirium
