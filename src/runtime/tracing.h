// Low-overhead event tracing shared by Runtime and SimRuntime — the
// §1 "tools for analyzing and improving execution speed", upgraded from
// per-node durations to a real event timeline (docs/OBSERVABILITY.md).
//
// Each worker records into its own fixed-capacity ring buffer with no
// locks and no atomics on the recording path; a global relaxed counter
// stamps every event with a sequence number so the merged stream has one
// deterministic order regardless of which ring an event landed in. The
// threaded runtime records wall-clock nanoseconds relative to the run
// start; SimRuntime records exact virtual nanoseconds under the same
// schema, so the same exporters serve both executors.
//
// Soundness of the lock-free design rests on one invariant: a ring is
// written only (a) by its owning worker while it holds a work item, from
// the pop until the item's last publication or its decrement of the
// run's outstanding counter, or (b) by the run's caller thread, which is
// also the only reader and reads only after the drain observed
// outstanding == 0. An executing item stages its enqueues and publishes
// them when it ends; with tracing on it keeps its own unit of
// outstanding work until after its last publication (add k, publish,
// subtract one), so the ring writes a publication makes (kInject, kWake)
// still precede a decrement. Each publication is a release that the
// popping worker acquires, and each change of the counter is an acq_rel
// RMW, so the chain from every ring write to the drain orders it before
// the caller's read. Events a worker would otherwise produce while idle
// (park intervals, dry steal scans) are kept in worker-local state and
// flushed at the next successful pop, which restores the invariant
// without losing the data. See docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace delirium {

/// One entry of the trace event stream. Operator and fault events carry
/// the operator's registry index (resolved to a name at export time, so
/// the hot path never touches a string); scheduler events use `arg` for
/// the kind-specific detail documented per enumerator.
enum class TraceEventKind : uint8_t {
  kOpBegin,     // operator attempt starts; arg = attempt number (0-based)
  kOpEnd,       // operator attempt ends (also on a throwing attempt)
  kSteal,       // item taken from a victim's deque; arg = victim worker
  kStealFail,   // full dry scans since the last pop; arg = scan count
  kPark,        // worker slept on its eventcount; arg = sleep duration ns
  kWake,        // notification sent to a parked worker; arg = target
  kInject,      // item pushed into another worker's inbox; arg = target
  kFaultRaise,  // fault captured (after retries were exhausted)
  kRetry,       // faulting operator about to re-run; arg = upcoming attempt
  kPurge,       // queued item discarded by cancellation
  kWatchdog,    // stall detector fired
};

/// Number of TraceEventKind enumerators (for per-kind count tables).
inline constexpr int kNumTraceEventKinds = 11;

/// Stable lower-case name of a kind ("op_begin", "steal", ...), used by
/// every exporter and by the multiset-equivalence helper.
std::string_view trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
  int64_t ts = 0;        // ns since run start (wall) / virtual ns (sim)
  uint64_t seq = 0;      // global record order; the merge key
  int64_t arg = 0;       // kind-specific detail (see TraceEventKind)
  int32_t op = -1;       // operator registry index, or -1
  int16_t worker = -1;   // recording worker / virtual processor
  TraceEventKind kind = TraceEventKind::kOpBegin;
};

/// Fixed-bucket log2 histogram of nanosecond durations: the per-operator
/// summary of operator slices (metrics, cost profiles, the slices a full
/// trace ring overwrote). Bucket i holds values whose bit width is i,
/// i.e. [2^(i-1), 2^i); percentiles report the upper bound of the bucket
/// containing the requested rank.
class LogHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  void observe(int64_t value_ns);
  /// Fold in every sample of `other`; the same state as observing them.
  void merge(const LogHistogram& other);

  uint64_t count() const { return count_; }
  int64_t total() const { return total_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }

  /// Raw log2 bucket counts, for serialization (docs/PROFILING.md).
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  /// Rebuild a histogram from previously serialized state, exactly: a
  /// restore followed by a re-serialize is byte-identical. `min`/`max`
  /// are the raw stored fields (returned only while count > 0).
  static LogHistogram restore(const std::array<uint64_t, kBuckets>& buckets,
                              uint64_t count, int64_t total, int64_t min, int64_t max);

  /// Deterministic percentile estimate: the upper bound of the log2
  /// bucket holding the value of rank ceil(p * count). p in [0, 1].
  int64_t percentile(double p) const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  int64_t total_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// One operator attempt, paired from its kOpBegin and kOpEnd events: the
/// unit of every per-operator timing (the §5.2 "call of X took N"
/// report, metrics histograms, cost profiles, the threaded runtime's
/// operator_ticks).
struct OpSlice {
  int32_t op = -1;        // operator registry index
  int16_t worker = -1;    // recording worker / virtual processor
  int64_t start = 0;      // the begin event's ts
  int64_t duration = 0;   // end ts - begin ts, never negative
  int64_t attempt = 0;    // the begin event's arg (0-based)
};

/// The one pairing rule for operator events, fed in record order. Per
/// worker (every negative worker shares the run caller's row), a kOpEnd
/// closes the innermost open kOpBegin when both name the same operator;
/// a kOpEnd that matches nothing (its begin was overwritten in a full
/// ring, or the stream was not produced by an executor) closes nothing,
/// and a begin never closed yields no slice. A worker runs one attempt
/// at a time (fused members run in sequence and emit their own pairs),
/// so a row is at most one deep on executor streams; the stack keeps
/// hand-built streams well defined.
class OpSlicer {
 public:
  /// Feed the next event. True when `e` closed an attempt, whose slice
  /// is then written to `slice`.
  bool feed(const TraceEvent& e, OpSlice& slice) {
    if (e.kind != TraceEventKind::kOpBegin && e.kind != TraceEventKind::kOpEnd) return false;
    const size_t row = e.worker < 0 ? 0 : static_cast<size_t>(e.worker) + 1;
    if (row >= open_.size()) open_.resize(row + 1);
    std::vector<TraceEvent>& stack = open_[row];
    if (e.kind == TraceEventKind::kOpBegin) {
      stack.push_back(e);
      return false;
    }
    if (stack.empty() || stack.back().op != e.op) return false;
    const TraceEvent& begin = stack.back();
    const int64_t duration = e.ts > begin.ts ? e.ts - begin.ts : 0;
    slice = OpSlice{e.op, e.worker, begin.ts, duration, begin.arg};
    stack.pop_back();
    return true;
  }

  void clear() { open_.clear(); }

 private:
  std::vector<std::vector<TraceEvent>> open_;  // row 0: callers; row w + 1: worker w
};

/// Every slice of `events` (in record order, as trace_events() returns
/// them), in the order of their end events.
std::vector<OpSlice> op_slices(const std::vector<TraceEvent>& events);

/// The durations of op_slices(events) as one histogram per operator,
/// indexed by registry index (slices with a negative index are dropped).
std::vector<LogHistogram> op_histograms(const std::vector<TraceEvent>& events);

/// Fixed-capacity single-writer ring. When full the oldest events are
/// overwritten (flight-recorder semantics: a bounded trace keeps the
/// most recent window); `overwritten()` reports how many were lost.
/// Operator time is not lost with them: the ring pairs the events it
/// overwrites with its own OpSlicer and keeps their slices as
/// per-operator histograms (overwritten_slices). No internal synchronization — see
/// the file comment for the happens-before discipline that makes reads
/// safe.
class TraceRing {
 public:
  /// Prepare `capacity` slots (rounded up to a power of two, min 16).
  /// Called once, before any recording.
  void init(size_t capacity);

  void push(const TraceEvent& e) {
    TraceEvent& slot = buf_[head_ & mask_];
    if (head_ > mask_) retire(slot);
    slot = e;
    ++head_;
  }

  void clear();
  size_t size() const { return head_ < buf_.size() ? head_ : buf_.size(); }
  uint64_t overwritten() const { return head_ < buf_.size() ? 0 : head_ - buf_.size(); }

  /// Append the retained events (oldest first) to `out`.
  void collect(std::vector<TraceEvent>& out) const;

  /// Add to `by_op` (indexed by operator) every attempt that
  /// op_slices(collect()) cannot pair because its begin was overwritten:
  /// those whose end was overwritten too, and those whose end the ring
  /// still holds. With the retained slices they are every attempt the
  /// ring recorded.
  void overwritten_slices(std::vector<LogHistogram>& by_op) const;

 private:
  /// Fold an event about to be overwritten into lost_.
  void retire(const TraceEvent& e);

  std::vector<TraceEvent> buf_;
  uint64_t mask_ = 0;
  uint64_t head_ = 0;
  OpSlicer retired_;                // pairs the overwritten prefix
  std::vector<LogHistogram> lost_;  // its slices, by operator
};

/// Sort a merged event stream into its global record order.
void sort_trace_events(std::vector<TraceEvent>& events);

/// Default per-worker ring capacity; override with RuntimeConfig::
/// trace_capacity or the DELIRIUM_TRACE_CAPACITY environment variable.
inline constexpr size_t kDefaultTraceCapacity = 1 << 16;

}  // namespace delirium
