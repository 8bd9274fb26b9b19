// The threaded Delirium runtime (§7 of the paper).
//
// All graph semantics — template activation, port fill and firing, the
// copy-on-write discipline, fault capture/retry, trace and stats
// emission — live in the shared ExecutorCore (executor_core.h); this
// header adds the *machine*: a pool of worker threads, the lock-free
// work-stealing ready queue, eventcount parking, the wall-clock
// watchdog, and per-worker trace rings. SimRuntime (sim.h) plugs a
// virtual-time machine into the same core, so results are deterministic
// and byte-identical across both executors regardless of worker count.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/runtime/executor_core.h"
#include "src/support/eventcount.h"
#include "src/support/mpsc_queue.h"
#include "src/support/work_steal_deque.h"

namespace delirium {

class InstanceManager;

/// Threaded-machine knobs. Everything shared with SimRuntime lives in
/// the ExecConfig base (executor_core.h) so a knob exists in both
/// executors by construction.
struct RuntimeConfig : ExecConfig {
  /// Worker threads ("processors"). 0 means hardware concurrency.
  int num_workers = 0;
  /// Watchdog: whole-run wall-clock budget in milliseconds; 0 disables.
  /// A fired watchdog cancels the run and reports which operators were
  /// executing and which activations were stranded waiting for inputs.
  /// (SimRuntime's watchdog budget is in *virtual* ns — see SimConfig.)
  int64_t watchdog_budget_ms = 0;
};

class Runtime : public ExecutorCore<Runtime> {
 public:
  explicit Runtime(const OperatorRegistry& registry, RuntimeConfig config = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execute the program's entry point. Throws RuntimeError (or whatever
  /// an operator threw) on failure. One run at a time per Runtime; the
  /// worker pool persists across runs.
  Value run(const CompiledProgram& program, std::vector<Value> args = {});

  /// Execute a specific global function.
  Value run_function(const CompiledProgram& program, const std::string& name,
                     std::vector<Value> args = {});

  const RunStats& last_stats() const { return stats_; }

  /// Trace event stream of the last run (empty unless enable_tracing),
  /// merged across workers and sorted by sequence number. Timestamps are
  /// wall-clock nanoseconds relative to the run start. op_slices()
  /// (tracing.h) pairs it into per-operator timings.
  const std::vector<TraceEvent>& trace_events() const { return merged_trace_; }
  /// Events lost to ring-buffer wraparound during the last run.
  uint64_t trace_events_overwritten() const { return trace_overwritten_; }
  /// The last run's operator attempts that op_slices(trace_events())
  /// cannot pair because a full ring overwrote their begin, as one
  /// histogram per operator (indexed by registry index; empty when no
  /// ring wrapped). Together with the retained slices they are every
  /// attempt of the run, so per-operator counts and operator_ticks stay
  /// exact at any ring capacity.
  const std::vector<LogHistogram>& trace_overwritten_slices() const {
    return overwritten_slices_;
  }

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const RuntimeConfig& config() const { return config_; }
  const OperatorRegistry& registry() const { return registry_; }

 private:
  // The core drives the machine hooks below and its nested Activation
  // touches the budget callback, so it (and its nested classes) need
  // access to this private section. The InstanceManager (instance.h)
  // multiplexes many RunStates over this machine's worker pool.
  friend class ExecutorCore<Runtime>;
  friend class InstanceManager;

  /// Per-run state — or per-*instance* state in manager mode, where the
  /// InstanceManager owns one RunState per admitted instance and many of
  /// them share the worker pool at once. Every activation carries a
  /// pointer to its owning RunState as its run token, which is what
  /// scopes cancellation, purging, fault capture, and the stranded dump
  /// to a single instance.
  struct RunState {
    std::mutex mu;
    std::condition_variable cv;
    bool have_result = false;
    Value result;
    /// Faults captured during the run, guarded by mu. At drain the
    /// smallest fault under fault_before() is the one rethrown, so the
    /// reported error is identical across schedulers and worker counts.
    std::vector<FaultInfo> faults;
    /// Set (release) by fail_fast fault capture, the watchdog, or a
    /// tripped instance budget; checked (acquire) before every execution
    /// so queued items are purged instead of run.
    std::atomic<bool> cancelled{false};
    bool watchdog_fired = false;     // caller thread only
    std::string watchdog_message;    // written before cancellation
    /// Queued + executing work items. The run is complete when this
    /// drains to zero. An enqueue from outside the pool adds one; an
    /// executing item stages its k enqueues and settles them when it
    /// ends with one net change of k - 1, made before the first of them
    /// becomes visible (publish_staged). Manager mode biases this by a
    /// +1 submission token held across the root spawn, so a transient
    /// zero mid-spawn cannot finalize the instance early.
    std::atomic<int64_t> outstanding{0};
    int64_t watchdog_budget_ns = 0;

    // -- Manager-mode fields (defaults in the plain single-run path) --
    /// Non-null routes the drained-to-zero notification to the manager
    /// instead of the cv; the manager finalizes the instance inline on
    /// the draining worker.
    InstanceManager* manager = nullptr;
    uint64_t instance_id = 0;  // 0 = plain single run (no dump annotation)
    std::string program_name;
    uint64_t max_activations = 0;  // 0 = unlimited
    std::atomic<uint64_t> activations{0};
    /// First budget trip wins (exchange); the winner writes
    /// budget_message under mu and cancels the instance.
    std::atomic<bool> budget_tripped{false};
    bool budget_fired = false;    // guarded by mu
    std::string budget_message;   // guarded by mu
    /// Root-spawn failure (unknown function, arity mismatch), guarded by
    /// mu; reported as the instance's error when nothing else fired.
    std::string spawn_error;
    bool finalized = false;       // guarded by mu (manager mode)
    Ticks submit_ticks = 0;
    int64_t time_budget_ns = 0;  // 0 = none (wall ns from submit)
    /// Held until finalize so budget/deadlock dumps can still walk the
    /// stranded activation tree.
    std::shared_ptr<Activation> root;
  };

  struct WorkItem {
    std::shared_ptr<Activation> act;
    uint32_t node = 0;
  };
  /// An enqueue made by an executing item, held until the item ends.
  struct StagedItem {
    WorkItem item;
    int priority = 0;
    int target = -1;
  };
  /// Initial capacity of each worker's staging buffer; it grows to the
  /// largest fan-out seen and keeps that capacity, so the node path
  /// does not allocate for it.
  static constexpr size_t kStagedReserve = 64;
  struct WorkerData {
    // What the worker is executing right now, for the watchdog dump.
    // Maintained only when a watchdog budget is set.
    std::mutex busy_mu;
    std::string busy_op;  // empty = idle
    Ticks busy_since = 0;
  };

  /// Per-worker state of the work-stealing scheduler: one bounded
  /// Chase–Lev deque and one unbounded MPSC injection queue per priority
  /// level, plus the worker's parking slot. Only the owner pushes/pops
  /// the deques' bottoms and consumes the inboxes; anyone steals from
  /// the deques' tops or pushes to the inboxes.
  struct WsWorker {
    std::array<WorkStealDeque<WorkItem>, kQueueLevels> deques;
    std::array<MpscQueue<WorkItem>, kQueueLevels> inbox;
    EventCount ec;
    std::atomic<bool> parked{false};
    uint32_t steal_rr = 0;  // owner-private: rotates the first steal victim
    // Owner-private deferred trace state: parks and dry steal scans
    // happen while the worker holds no work item, outside the window in
    // which ring writes are race-free (see tracing.h). They accumulate
    // here and are flushed at the next successful pop.
    Ticks pending_park_ts = 0;      // start of the first unflushed park
    int64_t pending_park_ns = 0;    // total time slept since last flush
    int64_t pending_steal_fails = 0;
    bool has_pending_park = false;
    // Owner-private: the enqueues of the item this worker is executing,
    // published together when it ends (publish_staged).
    std::vector<StagedItem> staged;
  };

  // -- MachineModel hooks (called by ExecutorCore; see executor_core.h) --
  static constexpr bool kVirtualTime = false;
  Ticks node_base_cost() { return 0; }
  void enqueue_ready(const std::shared_ptr<Activation>& act, uint32_t node, Ticks when);
  void deliver_final(void* run, Value v, Ticks when);
  void trace_from_core(int worker, Ticks ts, TraceEventKind kind, int32_t op, int64_t arg);
  void record_fault_from_core(void* run, FaultInfo f, int32_t op_index, Ticks ts,
                              int worker);
  void charge_remote(int domain_from, int domain_to, int64_t bytes, Ticks penalty_ns,
                     Ticks& cost);
  void charge_stall(Ticks ns, Ticks& cost);
  void charge_backoff(Ticks ns, Ticks& cost);
  void busy_begin(int worker, const OperatorDef& def);
  void busy_end(int worker);
  // No operator clock: operator time is summed from the trace's slices
  // at the end of a traced run (finish_run_bookkeeping).
  Ticks op_clock_begin() { return 0; }
  void op_note_success(Ticks /*t0*/, const OperatorDef& /*def*/, int /*op_index*/,
                       uint64_t /*arrival*/, Ticks& /*cost*/) {}
  uint64_t op_arrival(const OperatorDef& def, int op_index, bool has_plan);
  int last_affinity_worker(int op_index);
  void note_affinity(int op_index, int worker);
  void on_activation_created(Activation* act);
  int stat_shard_index() const;

  void worker_loop(int worker);
  void ws_enqueue(WorkItem item, int priority, int target);
  bool ws_try_pop(int worker, WorkItem& out);
  bool ws_has_work(int worker) const;
  void ws_wake(int worker);    // notify one specific parked worker
  void ws_wake_any_parked();   // notify some parked worker, if any
  void execute(const WorkItem& item, int worker);
  void publish_staged(RunState* rs, int worker);

  void reset_run_accumulators();
  void finish_run_bookkeeping();

  // Tracing (docs/OBSERVABILITY.md). The disabled path is one branch.
  // `worker` selects the target ring; -1 (a thread outside the pool —
  // only ever the run's caller) uses the extra external ring.
  void trace(int worker, TraceEventKind kind, int32_t op = -1, int64_t arg = 0) {
    if (!trace_enabled_) return;
    trace_at(now_ticks() - run_start_ticks_, worker, kind, op, arg);
  }
  void trace_at(int64_t ts, int worker, TraceEventKind kind, int32_t op, int64_t arg);
  void ws_flush_pending_trace(int worker);

  // Fault handling (docs/ROBUSTNESS.md).
  void record_fault(RunState* rs, FaultInfo f, int32_t op_index = -1);
  void cancel_run(RunState* rs);
  void fire_watchdog(RunState* rs);
  std::vector<StrandedActivation> collect_stranded(const RunState* rs);
  std::string dump_busy_workers();

  RuntimeConfig config_;

  // Scheduler state (see docs/RUNTIME.md).
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<WsWorker>> ws_;
  std::atomic<int> num_parked_{0};
  std::atomic<uint32_t> inject_rr_{0};  // round-robin for external enqueues

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerData>> worker_data_;
  std::vector<std::atomic<int>> op_last_worker_;  // operator-affinity memory
  std::vector<std::atomic<uint64_t>> op_arrivals_;  // per-operator arrival counters

  std::mutex run_mu_;  // serializes run() calls (and whole manager sessions)
  /// Whether busy_begin/busy_end maintain the per-worker busy-op dump.
  /// On only when something could consume it: a run with a watchdog
  /// budget, or a manager session configured to track busy workers.
  std::atomic<bool> busy_tracking_{false};

  // Tracing state. Rings are sized num_workers + 1; the last ring
  // belongs to the run's caller thread (root spawn, watchdog). The
  // sequence counter is the only shared mutable state on the recording
  // path — one relaxed fetch_add per event.
  bool trace_enabled_ = false;
  Ticks run_start_ticks_ = 0;
  std::vector<TraceRing> trace_rings_;
  std::atomic<uint64_t> trace_seq_{0};
  std::vector<TraceEvent> merged_trace_;
  uint64_t trace_overwritten_ = 0;
  std::vector<LogHistogram> overwritten_slices_;

  RunStats stats_;
};

}  // namespace delirium
