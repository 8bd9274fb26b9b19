// The shared executor core (docs/RUNTIME.md, DESIGN.md).
//
// The paper's central claim is that one coordination graph executes with
// identical semantics on any machine. This header makes that true *by
// construction*: everything that defines those semantics — the
// activation lifecycle (port fill, firing rule, continuation links), the
// copy-on-write block discipline and its kUnique fast path, fault
// capture / retry-with-snapshot / injection, trace + RunStats emission,
// the live-activation ledger and the affinity placement rule — lives
// once, in ExecutorCore<Machine>. A `Machine` is a small policy class
// (the threaded Runtime or the virtual-time SimRuntime) that supplies
// only what genuinely differs between real and simulated hardware: the
// clock, the ready-queue dispatch, how stalls and backoff are charged,
// and where faults/traces/final results land.
//
// Adding a runtime feature therefore means editing this file once, not
// mirroring it into runtime.cpp and sim.cpp and hoping the
// *_equivalence_test suites catch the drift.
//
// The Machine policy (CRTP — `class Runtime : public ExecutorCore<Runtime>`)
// must provide:
//
//   static constexpr bool kVirtualTime;   // virtual clock? (sizes ready_at)
//   Ticks node_base_cost();               // per-node overhead (0 / node_overhead_ns)
//   void enqueue_ready(act, node, when);  // a node's inputs are complete
//   void deliver_final(run, Value v, Ticks when);
//   void trace_from_core(worker, ts, kind, op, arg);
//   void record_fault_from_core(run, FaultInfo, op_index, ts, worker);
//   void charge_remote(dom_from, dom_to, bytes, penalty_ns, cost);
//                                         // topology-charged block pull:
//                                         // calibrated spin (wall) or
//                                         // cost += penalty_ns (virtual)
//   void charge_stall(ns, cost);          // injected stall
//   void charge_backoff(ns, cost);        // retry backoff
//   void busy_begin(worker, def) / busy_end(worker);   // watchdog busy dump
//   Ticks op_clock_begin();               // start the operator cost clock
//   void op_note_success(t0, def, op_index, arrival, cost);
//                                         // charge a successful attempt's
//                                         // cost (virtual time only; the
//                                         // threaded machine's operator
//                                         // time comes from the trace)
//   uint64_t op_arrival(def, op_index, has_plan);  // per-op arrival counter
//   int last_affinity_worker(op_index);   // operator-affinity memory
//   void note_affinity(op_index, worker);
//   void on_activation_created(act);      // per-instance activation budget
//   int stat_shard_index();               // the calling thread's counter shard
//
// Results and faults are routed by the *activation's* opaque run token
// (Activation::run), not by any per-machine "current run" notion: the
// token is fixed at the root spawn and inherited by every child, so many
// independent instances can share one machine's worker pool and each
// fault or final value still lands in its own instance's state
// (src/runtime/instance.h).
//
// Ready queues, parking, and the drain/watchdog drivers stay
// Machine-side: they are machine models, not graph semantics.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/template.h"
#include "src/runtime/fault.h"
#include "src/runtime/registry.h"
#include "src/runtime/tracing.h"
#include "src/runtime/value.h"
#include "src/support/clock.h"
#include "src/support/env.h"
#include "src/support/topology.h"

namespace delirium {

/// Locality heuristics from §9.3. kOperator prefers the worker that last
/// ran the operator; kData prefers the home worker of the largest input
/// block. Neither affects computed values.
enum class AffinityMode { kNone, kOperator, kData };

/// Knobs shared by both executors. RuntimeConfig and SimConfig embed
/// this as a base, so a knob added here lands in both machines at once
/// (exec_config_test statically checks that no shared knob drifts back
/// into only one of them).
struct ExecConfig {
  /// Use the three-level priority queue of §7; false degrades to a single
  /// FIFO (the ablation measured by bench_priority).
  bool use_priorities = true;
  /// Honor the facts engine's static critical-path marks
  /// (Node::on_critical_path, src/analysis/facts.h) as ready-queue
  /// sub-levels: within each §7 priority class, nodes on a
  /// maximal-height dependency chain run ahead of off-path work, so the
  /// chain that bounds the run's span is never starved by fan-out.
  /// Computed values are unaffected — only the schedule changes. Kill
  /// switch for A/B runs: DELIRIUM_COST_HINTS=0. No effect when
  /// use_priorities is off or the compiler published no marks.
  bool cost_hints = true;
  /// Forward continuations on tail calls (§7's early activation reuse);
  /// false nests every call — the ablation shows loops then consume
  /// activations proportional to their iteration count.
  bool enable_tail_calls = true;
  AffinityMode affinity = AffinityMode::kNone;
  /// The NUMA-domain machine model (src/support/topology.h): worker→
  /// domain striping and intra/inter-domain per-KiB pull costs plus a
  /// cross-domain migration surcharge, modelling e.g. the BBN
  /// Butterfly's expensive remote references. The threaded runtime spins
  /// for a charge; SimRuntime adds it to the virtual clock. Defaults to
  /// UMA (one domain, zero cost — the accounting is skipped entirely);
  /// MemoryTopology::flat(ns_per_kib) charges every pull from another
  /// worker the same per-KiB penalty. Overridable via DELIRIUM_TOPOLOGY;
  /// a performance model only, never semantics.
  MemoryTopology topology;
  /// Let the schedulers *use* the topology: same-domain-first steal
  /// order and in-domain data-affinity placement. Off = locality-blind
  /// scheduling under the same cost model (the A/B ablation leg of
  /// bench_locality). No effect under a single- or per-worker-domain
  /// topology. Kill switch: DELIRIUM_LOCALITY=0.
  bool locality_scheduling = true;
  /// Honor kUnique consume-class annotations from the sole-consumer
  /// analysis: mutate such arguments in place without the uniqueness
  /// test or clone. Kill switch for A/B runs and debugging.
  bool unique_fastpath = true;
  /// Automatic retries of a faulting retry-eligible operator: pure
  /// operators, and destructive operators whose every destructive
  /// argument the sole-consumer analysis proved kUnique (a pre-image
  /// snapshot then makes the retry exact). 0 disables retry.
  /// Overridable via the DELIRIUM_RETRIES environment variable.
  int max_retries = 0;
  /// Base delay before a retry, doubled per attempt. Wall-clock in the
  /// threaded runtime; SimRuntime charges it to the virtual clock.
  int64_t retry_backoff_ns = 1000;
  /// Cancel the run on the first captured fault instead of draining.
  /// Fails faster, but the reported fault may then depend on the
  /// schedule (see docs/ROBUSTNESS.md for the determinism contract).
  bool fail_fast = false;
  /// Record the trace event stream (operator begin/end, scheduler and
  /// fault events); read it back with trace_events() and export with
  /// tools::write_trace_events. Off by default — the disabled path costs
  /// one predictable branch per hook (bench_trace_overhead). Overridable
  /// via the DELIRIUM_TRACE environment variable ("0"/"1").
  bool enable_tracing = false;
  /// Per-worker trace ring capacity in events (rounded up to a power of
  /// two). When a ring fills, the oldest events are overwritten and
  /// counted in trace_events_overwritten(). Overridable via
  /// DELIRIUM_TRACE_CAPACITY. SimRuntime records into one growable
  /// vector and never overwrites, so the capacity is ignored there.
  size_t trace_capacity = kDefaultTraceCapacity;
};

/// Apply the environment overrides every executor honors to an already-
/// populated config: DELIRIUM_TRACE, DELIRIUM_TRACE_CAPACITY,
/// DELIRIUM_COST_HINTS, DELIRIUM_AFFINITY, DELIRIUM_TOPOLOGY,
/// DELIRIUM_LOCALITY.
void apply_exec_env_overrides(ExecConfig& config);

/// Ready-queue levels: the three §7 priority classes, each split into a
/// critical-path sub-level and an off-path sub-level (ExecConfig::
/// cost_hints). Machines size their queue arrays with this.
inline constexpr int kQueueLevels = 6;

struct RunStats {
  uint64_t activations_created = 0;
  /// The sum, over the counter shards (StatShard), of each shard's peak
  /// count of live activations it created, since the run's reset. The
  /// simulator has one shard, so there it is the exact peak; the
  /// threaded runtime has one per worker plus one for the run's caller,
  /// which creates only the root, so at one worker it is exact too.
  /// Above that it is an upper bound on the true peak, no larger than
  /// activations_created.
  uint64_t peak_live_activations = 0;
  /// Activation-pool traffic: allocations served by recycling a
  /// previously-retired object (pooled) vs. fresh arena/heap carves
  /// (allocated). Steady-state loops should be nearly all pooled. The
  /// sum is schedule-independent; the split is not, because it follows
  /// the freelists' order: it varies in the threaded runtime, and in
  /// SimRuntime too unless operator costs are fixed or replayed
  /// (measured wall-time costs move the virtual schedule).
  uint64_t activations_pooled = 0;
  uint64_t activations_allocated = 0;
  uint64_t nodes_executed = 0;
  uint64_t operator_invocations = 0;
  uint64_t cow_copies = 0;          // blocks copied to preserve determinism
  uint64_t cow_skipped = 0;         // clones elided via kUnique annotations
  uint64_t remote_block_moves = 0;  // NUMA-simulated block migrations
  uint64_t remote_bytes_pulled = 0; // payload bytes of cross-domain pulls
  /// Total time inside operators. SimRuntime: the charged cost of each
  /// successful attempt, without injected stalls (its slices include
  /// them) or failed attempts (zero-length slices). Runtime: the sum of
  /// every operator slice of the run (op_slices, tracing.h, plus the
  /// slices a full ring overwrote), so failed attempts and injected
  /// stalls count; 0 when tracing is off.
  Ticks operator_ticks = 0;

  // Scheduler counters. SimRuntime reports every virtual enqueue as
  // local and the rest as zero, so tooling sees one schema across both
  // executors.
  uint64_t sched_local_enqueues = 0;     // pushed to the enqueuer's own deque
  uint64_t sched_injected_enqueues = 0;  // crossed workers via an MPSC inbox
  uint64_t sched_steals = 0;             // items taken from a victim's deque
  uint64_t sched_failed_steals = 0;      // full victim scans that found nothing
  uint64_t sched_local_steals = 0;       // steals from a same-domain victim
  uint64_t sched_remote_steals = 0;      // steals that crossed a domain boundary
  uint64_t sched_parks = 0;              // times a worker slept on its eventcount
  uint64_t sched_wakeups = 0;            // notifications sent to parked workers
  uint64_t sched_hint_promotions = 0;    // critical-path nodes enqueued ahead
                                         // of their class (ExecConfig::cost_hints)
  uint64_t sched_cost_promotions = 0;    // promotions whose criticality came from
                                         // a measured cost profile (Node::cost_hinted)

  // Fault counters (docs/ROBUSTNESS.md), identical across executors
  // because capture/retry lives in ExecutorCore.
  uint64_t faults_raised = 0;      // faults captured and surfaced at drain
  uint64_t faults_injected = 0;    // injection-plan actions that fired
  uint64_t retries = 0;            // operator attempts re-run after a fault
  uint64_t retries_exhausted = 0;  // operators whose retry budget ran out
  uint64_t items_purged = 0;       // queued items discarded by cancellation
  uint64_t watchdog_fires = 0;     // stall-detector activations

  // Multi-instance counters (src/runtime/instance.h, docs/ROBUSTNESS.md
  // "Isolation model"). All zero for plain single-instance runs.
  uint64_t instances_admitted = 0;      // requests accepted by admission control
  uint64_t instances_completed = 0;     // instances that delivered a value
  uint64_t instances_faulted = 0;       // instances that drained to a fault
  uint64_t instances_budget_killed = 0; // instances cancelled by their budget
  uint64_t instances_shed = 0;          // requests rejected at admission (kOverload)
};

// ---------------------------------------------------------------------------
// Activation pool
// ---------------------------------------------------------------------------

/// Arena + freelist recycler for the per-activation hot-path storage:
/// Activation/Collector control blocks (via allocate_shared) and their
/// slot/pending vectors, plus the operator-argument scratch vectors.
/// Size-classed (powers of two, 16 B .. 16 KiB) over 64 KiB bump-arena
/// chunks; anything larger falls through to the global heap.
///
/// Two tiers keep the hot path lock-free: each thread holds a bounded
/// magazine of free objects per size class (plain pointer pushes and
/// pops, no atomics), and the shared freelists behind the mutex are
/// touched only in batches — a refill when a magazine runs dry, a
/// half-flush when one overflows. The mutex on the batched transfers
/// supplies the happens-before edge that makes recycled memory safe to
/// republish across threads; same-thread recycling needs none. A
/// thread's magazine binds to one pool at a time and flushes back
/// through a live-pool registry when it rebinds or the thread exits,
/// so multiple runtimes on one thread stay safe.
///
/// Debug builds poison freed objects and assert the poison is intact on
/// reuse, so a stale reference writing through a retired activation
/// fails loudly instead of corrupting its successor.
class ActivationPool {
 public:
  ActivationPool();
  ~ActivationPool();
  ActivationPool(const ActivationPool&) = delete;
  ActivationPool& operator=(const ActivationPool&) = delete;

  void* allocate(size_t bytes);
  void deallocate(void* p, size_t bytes) noexcept;

  /// Per-run counters (RunStats.activations_pooled/_allocated), summed
  /// over the per-thread tallies.
  void reset_counters();
  uint64_t pooled() const { return sum(&Tally::pooled); }
  uint64_t allocated() const { return sum(&Tally::allocated); }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr size_t kMinClassBytes = 16;   // >= sizeof(FreeNode), aligned
  static constexpr size_t kNumClasses = 11;      // 16 B .. 16 KiB
  static constexpr size_t kChunkBytes = 64 * 1024;
  /// Magazine bounds: a thread may hoard at most kCacheCap objects per
  /// class before half drain back to the shared lists; a dry magazine
  /// refills with up to kRefillBatch recycled objects in one lock.
  static constexpr uint32_t kCacheCap = 64;
  static constexpr uint32_t kRefillBatch = 32;

  /// One thread's share of the pool counters, on its own cache line:
  /// only the thread bound to it writes it, so counting never shares a
  /// line between workers. A thread claims a free tally when its
  /// magazine binds to this pool and releases it when the magazine
  /// rebinds or the thread exits; the counts stay in the tally and are
  /// summed when read.
  struct alignas(64) Tally {
    std::atomic<uint64_t> pooled{0};
    std::atomic<uint64_t> allocated{0};
    bool bound = false;  // guarded by mu_
  };

  /// One per thread, shared by every pool: plain singly-linked stacks
  /// the owning thread alone touches. Rebinds (and thread exit) flush
  /// the contents back to `owner` if it is still alive. The generation
  /// id guards against a new pool reusing a dead pool's address (stack
  /// runtimes constructed in a loop do exactly that): a bare pointer
  /// match would hand the new pool freed memory.
  struct TlsCache {
    ActivationPool* owner = nullptr;
    uint64_t owner_id = 0;
    std::array<FreeNode*, kNumClasses> free{};
    std::array<uint32_t, kNumClasses> count{};
    Tally* tally = nullptr;  // owner's tally claimed by this thread
    ~TlsCache();
  };

  /// Size class for a request, or -1 when it must go to the heap.
  static int size_class(size_t bytes);
  /// This thread's magazine, rebound to this pool (flushing any nodes
  /// held for a previous owner first).
  TlsCache& bound_cache();
  /// A tally no bound thread holds, created if none is free.
  Tally* claim_tally();
  /// One count summed over every tally.
  uint64_t sum(std::atomic<uint64_t> Tally::*count) const;
  /// Slow path: batch-refill the magazine from the shared freelist, or
  /// carve one fresh object from the arena.
  void* refill_and_allocate(TlsCache& cache, int cls, size_t cls_bytes);
  /// Return half of an overflowing magazine class to the shared list.
  void flush_half(TlsCache& cache, int cls) noexcept;
  /// Return every cached node to `cache.owner` if that pool is still
  /// registered as live, and release the thread's tally there; otherwise
  /// drop the (already freed) pointers.
  static void flush_all(TlsCache& cache) noexcept;

  mutable std::mutex mu_;
  std::array<FreeNode*, kNumClasses> free_{};
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  size_t chunk_used_ = kChunkBytes;  // "full": the first allocation opens a chunk
  const uint64_t id_;                // process-unique generation (see TlsCache)
  /// Freelist hits (pooled) and fresh carves + heap passthroughs
  /// (allocated), one tally per bound thread; guarded by mu_.
  std::vector<std::unique_ptr<Tally>> tallies_;
};

/// Minimal std-allocator shim over ActivationPool, so standard vectors
/// and allocate_shared recycle through the pool.
template <class T>
struct PoolAllocator {
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ActivationPool* pool = nullptr;

  PoolAllocator() = default;
  explicit PoolAllocator(ActivationPool* p) : pool(p) {}
  template <class U>
  PoolAllocator(const PoolAllocator<U>& other) : pool(other.pool) {}

  T* allocate(size_t n) { return static_cast<T*>(pool->allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { pool->deallocate(p, n * sizeof(T)); }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.pool == b.pool;
  }
};

// ---------------------------------------------------------------------------
// Counter shards
// ---------------------------------------------------------------------------

/// The atomic accumulators behind RunStats, one shard per writer so the
/// per-node path never writes a cache line another worker writes. The
/// threaded runtime gives every worker its own shard plus one for the
/// threads outside its pool (the run's caller, instance submitters);
/// SimRuntime is single-threaded and has one. The Machine's
/// stat_shard_index() picks the calling thread's shard, and a snapshot
/// sums them all. Apart from the live gauge and its peak, no sum depends
/// on which shard counted what.
struct alignas(64) StatShard {
  std::atomic<uint64_t> activations_created{0};
  /// Activations this shard created that are still alive: incremented by
  /// the creating thread, decremented by whichever thread destroys one,
  /// so it never goes negative.
  std::atomic<int64_t> live_activations{0};
  std::atomic<uint64_t> peak_live_activations{0};  // of live_activations
  std::atomic<uint64_t> nodes_executed{0};
  std::atomic<uint64_t> operator_invocations{0};
  std::atomic<uint64_t> cow_copies{0};
  std::atomic<uint64_t> cow_skipped{0};
  std::atomic<uint64_t> remote_block_moves{0};
  std::atomic<uint64_t> remote_bytes_pulled{0};
  std::atomic<int64_t> operator_ticks{0};
  std::atomic<uint64_t> sched_local_enqueues{0};
  std::atomic<uint64_t> sched_injected_enqueues{0};
  std::atomic<uint64_t> sched_steals{0};
  std::atomic<uint64_t> sched_failed_steals{0};
  std::atomic<uint64_t> sched_local_steals{0};
  std::atomic<uint64_t> sched_remote_steals{0};
  std::atomic<uint64_t> sched_parks{0};
  std::atomic<uint64_t> sched_wakeups{0};
  std::atomic<uint64_t> sched_hint_promotions{0};
  std::atomic<uint64_t> sched_cost_promotions{0};
  std::atomic<uint64_t> faults_raised{0};
  std::atomic<uint64_t> faults_injected{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> retries_exhausted{0};
  std::atomic<uint64_t> items_purged{0};
  std::atomic<uint64_t> watchdog_fires{0};
  std::atomic<uint64_t> instances_admitted{0};
  std::atomic<uint64_t> instances_completed{0};
  std::atomic<uint64_t> instances_faulted{0};
  std::atomic<uint64_t> instances_budget_killed{0};
  std::atomic<uint64_t> instances_shed{0};

  /// Zero every per-run counter. live_activations is a gauge, not a
  /// per-run counter, and survives the reset.
  void reset();
  /// Add this shard's counters to a RunStats sum (peaks add too).
  void add_to(RunStats& out) const;
};

// ---------------------------------------------------------------------------
// Shared run-driver helpers (non-template; defined in executor_core.cpp)
// ---------------------------------------------------------------------------

/// Index of the drain winner — the fault with the smallest deterministic
/// sequence id under fault_before() — or -1 when `faults` is empty.
int smallest_fault_index(const std::vector<FaultInfo>& faults);

/// The dataflow-deadlock diagnostic, byte-identical across executors up
/// to the "simulated " prefix.
std::string build_deadlock_message(bool simulated, const std::string& stranded);

/// The watchdog diagnostic. `budget_text` is "<N> ms" (threaded) or
/// "<N> virtual ns" (sim); `busy_section` is the threaded runtime's
/// "busy workers:" dump or empty; `instance_text` names the instance the
/// watchdog fired for (" (instance N: 'prog')" in manager mode, empty
/// otherwise — single-run output stays byte-identical).
std::string build_watchdog_message(const std::string& budget_text,
                                   const std::string& busy_section,
                                   const std::string& stranded,
                                   const std::string& instance_text = "");

// ---------------------------------------------------------------------------
// ExecutorCore
// ---------------------------------------------------------------------------

template <class Machine>
class ExecutorCore {
 protected:
  explicit ExecutorCore(const OperatorRegistry& registry) : registry_(registry) {}
  ~ExecutorCore() = default;

  // -- Activation ------------------------------------------------------------

  struct Collector;

  /// A template activation (§7): a pointer back to the template plus
  /// enough buffer space to evaluate the subgraph once. The tree of
  /// activations is the parallel generalization of the sequential call
  /// stack. Lifetime is managed by shared ownership: the ready queue and
  /// child activations (through their continuation) keep an activation
  /// alive exactly as long as it can still be referenced — and all of
  /// its storage recycles through the ActivationPool.
  struct Activation {
    Activation(Machine* owner_in, const CompiledProgram* prog_in, const Template* tmpl_in,
               void* run_in, uint64_t seq_in, ActivationPool* pool)
        : owner(owner_in), prog(prog_in), tmpl(tmpl_in), run(run_in), seq(seq_in),
          slots(tmpl_in->value_slots, PoolAllocator<Value>(pool)),
          pending(tmpl_in->nodes.size(), PoolAllocator<std::atomic<int32_t>>(pool)),
          ready_at(Machine::kVirtualTime ? tmpl_in->nodes.size() : 0,
                   PoolAllocator<Ticks>(pool)) {
      for (size_t i = 0; i < tmpl->nodes.size(); ++i) {
        pending[i].store(tmpl->nodes[i].num_inputs, std::memory_order_relaxed);
      }
      stat_shard = owner->stat_shard_index();
      StatShard& c = owner->stat_shards_[stat_shard];
      c.activations_created.fetch_add(1, std::memory_order_relaxed);
      const int64_t live = c.live_activations.fetch_add(1, std::memory_order_relaxed) + 1;
      uint64_t peak = c.peak_live_activations.load(std::memory_order_relaxed);
      while (static_cast<uint64_t>(live) > peak &&
             !c.peak_live_activations.compare_exchange_weak(peak, static_cast<uint64_t>(live),
                                                            std::memory_order_relaxed)) {
      }
      owner->ledger_link(this);
      owner->on_activation_created(this);
    }

    ~Activation() {
      owner->ledger_unlink(this);
      owner->stat_shards_[stat_shard].live_activations.fetch_sub(1,
                                                                 std::memory_order_relaxed);
    }

    Machine* owner;
    /// The program this activation's template belongs to. Carried per
    /// activation (not per machine) so concurrent instances of
    /// *different* programs can share one worker pool; kCall and
    /// kMakeClosure resolve their target templates through it.
    const CompiledProgram* prog;
    const Template* tmpl;
    /// Opaque run tag identifying the instance this activation belongs
    /// to (the threaded RunState / the simulator's instance record);
    /// fixed at the root spawn, inherited by every child, and used only
    /// by the Machine, never interpreted here.
    void* run;
    /// Deterministic structural sequence id (see fault.h): a hash of the
    /// spawn path, independent of the schedule and of the machine model,
    /// so fault reports match byte for byte across executors.
    uint64_t seq;
    std::vector<Value, PoolAllocator<Value>> slots;
    std::vector<std::atomic<int32_t>, PoolAllocator<std::atomic<int32_t>>> pending;
    /// Per node: when its last input arrived. Virtual-time machines only
    /// (sized zero otherwise).
    std::vector<Ticks, PoolAllocator<Ticks>> ready_at;
    /// Continuation: where this activation's result goes. When
    /// `collector` is set the result joins a parmap package instead;
    /// otherwise a null cont_act means "the final result of the run".
    std::shared_ptr<Activation> cont_act;
    uint32_t cont_node = 0;
    /// The counter shard of the creating thread, whose live gauge the
    /// destructor decrements on whatever thread it runs.
    uint32_t stat_shard = 0;
    std::shared_ptr<Collector> collector;
    uint32_t collector_index = 0;
    /// Links of the live-activation ledger (for_each_live), guarded by
    /// this activation's shard mutex.
    Activation* ledger_prev = nullptr;
    Activation* ledger_next = nullptr;
  };

  /// Join object for kParMap (§9.2 dynamic parallelism): one child
  /// activation per package element; the last returning child assembles
  /// the result package and forwards it to the parmap's continuation.
  /// `latest` tracks the latest child completion (virtual time only).
  struct Collector {
    std::vector<Value> results;  // one slot per element (Value::tuple takes ownership)
    std::atomic<int> remaining{0};
    Ticks latest = 0;
    std::shared_ptr<Activation> cont_act;  // null -> the run's final result
    uint32_t cont_node = 0;
  };

  // -- Setup -----------------------------------------------------------------

  /// Point the core at the Machine's resolved config (after its
  /// environment overrides), its worker count and its number of counter
  /// shards. Call once, from the Machine's constructor, before any
  /// activation exists.
  void init_exec(const ExecConfig* config, int num_workers, int num_stat_shards) {
    exec_config_ = config;
    num_workers_ = num_workers;
    stat_shards_ = std::vector<StatShard>(static_cast<size_t>(num_stat_shards));
    numa_active_ = config->topology.models_cost();
    if (config->topology.num_domains > 1) {
      domain_rr_ = std::vector<std::atomic<uint32_t>>(
          static_cast<size_t>(config->topology.num_domains));
    }
  }

  const ExecConfig& exec_config() const { return *exec_config_; }

  /// The topology both machines schedule and charge against.
  const MemoryTopology& topology() const { return exec_config_->topology; }

  /// Ready-queue level for a node: the §7 priority class, split by the
  /// facts engine's critical-path mark when cost_hints is on. Lower
  /// level = drained first. Counts each promoted enqueue so RunStats
  /// can report how often the hint actually steered the schedule.
  int queue_level(const Node& n) {
    if (!exec_config().use_priorities) return 0;
    const int base = static_cast<int>(n.priority) * 2;
    if (!exec_config().cost_hints) return base;
    if (n.on_critical_path) {
      // Split the tally by the mark's provenance: static unit-height
      // marks vs marks recomputed from a measured cost profile
      // (apply_sched_hints cost overload, docs/PROFILING.md).
      StatShard& c = counters();
      (n.cost_hinted ? c.sched_cost_promotions : c.sched_hint_promotions)
          .fetch_add(1, std::memory_order_relaxed);
      return base;
    }
    return base + 1;
  }

  /// Resolve the per-run fault policy: an injection plan attached to the
  /// registry beats the environment spec; retries honor the same
  /// DELIRIUM_RETRIES override in both executors.
  void resolve_run_policy() {
    plan_ = registry_.fault_plan() != nullptr ? registry_.fault_plan()
                                              : FaultPlan::from_env();
    max_retries_ = static_cast<int>(
        env_int("DELIRIUM_RETRIES", exec_config().max_retries, 0, 1 << 20));
    retry_backoff_ns_ = exec_config().retry_backoff_ns > 0 ? exec_config().retry_backoff_ns : 0;
  }

  /// The calling thread's counter shard (Machine::stat_shard_index).
  StatShard& counters() { return stat_shards_[machine().stat_shard_index()]; }

  /// Zero the per-run counters (including the pool's).
  void reset_core_run_state() {
    for (StatShard& s : stat_shards_) s.reset();
    pool_.reset_counters();
  }

  /// Publish the core-owned counters, summed over the shards, into a
  /// RunStats snapshot.
  void snapshot_core_stats(RunStats& out) const {
    out = RunStats{};
    for (const StatShard& s : stat_shards_) s.add_to(out);
    out.activations_pooled = pool_.pooled();
    out.activations_allocated = pool_.allocated();
  }

  // -- Dataflow --------------------------------------------------------------

  /// Instantiate `tmpl`: seed constant and parameter nodes, enqueue any
  /// node with no inputs. `when` is the virtual arrival time (ignored by
  /// wall-clock machines).
  std::shared_ptr<Activation> spawn(const CompiledProgram* prog, const Template* tmpl,
                                    std::vector<Value> params,
                                    std::shared_ptr<Activation> cont_act, uint32_t cont_node,
                                    uint64_t seq, Ticks when, void* run,
                                    std::shared_ptr<Collector> collector = nullptr,
                                    uint32_t collector_index = 0) {
    if (params.size() != tmpl->num_params) {
      throw RuntimeError("activation of '" + tmpl->name + "' expects " +
                         std::to_string(tmpl->num_params) + " values, got " +
                         std::to_string(params.size()));
    }
    auto act = std::allocate_shared<Activation>(PoolAllocator<Activation>(&pool_),
                                                &machine(), prog, tmpl, run, seq, &pool_);
    act->cont_act = std::move(cont_act);
    act->cont_node = cont_node;
    act->collector = std::move(collector);
    act->collector_index = collector_index;
    for (uint32_t i = 0; i < tmpl->nodes.size(); ++i) {
      const Node& n = tmpl->nodes[i];
      switch (n.kind) {
        case NodeKind::kConst:
          deliver(act, i, Value::from_const(n.literal), when);
          break;
        case NodeKind::kParam:
          deliver(act, i, std::move(params[n.param_index]), when);
          break;
        default:
          if (n.num_inputs == 0) machine().enqueue_ready(act, i, when);
          break;
      }
    }
    return act;
  }

  /// Child spawn for kCall/kCallClosure/kIfDispatch. The structural child
  /// id uses the same formula under both call shapes, so it never depends
  /// on the tail-call state of anything *below* this node.
  void spawn_child(const std::shared_ptr<Activation>& act, uint32_t node,
                   const Template* target, std::vector<Value> params, Ticks when) {
    const Node& n = act->tmpl->nodes[node];
    const uint64_t seq = fault_seq_child(act->seq, node, 0);
    if (n.is_tail && exec_config().enable_tail_calls) {
      // Tail call: forward the *whole* continuation — including a parmap
      // collector, if this activation's result was to join one. This
      // activation can retire as soon as its remaining nodes finish (§7's
      // early activation reuse).
      spawn(act->prog, target, std::move(params), act->cont_act, act->cont_node, seq, when,
            act->run, act->collector, act->collector_index);
    } else {
      spawn(act->prog, target, std::move(params), act, node, seq, when, act->run);
    }
  }

  /// Route a produced value to the consumers of `node`.
  void deliver(const std::shared_ptr<Activation>& act, uint32_t node, Value v, Ticks when) {
    const Node& n = act->tmpl->nodes[node];
    const size_t k = n.consumers.size();

    // Decomposition fast path: kTupleGet consumers receive their element
    // directly, and the package itself is released *before* any element
    // is forwarded. This keeps reference counts exact, so an operator
    // with destructive access to an element does not see a transient
    // count from the package and copy needlessly.
    bool any_get = false;
    for (const PortRef& c : n.consumers) {
      any_get = any_get || act->tmpl->nodes[c.node].kind == NodeKind::kTupleGet;
    }
    if (any_get) {
      const MultiValue& mv = v.as_tuple();  // throws if not a package
      std::vector<std::pair<uint32_t, Value>> extracted;
      for (size_t i = 0; i < k; ++i) {
        const PortRef& c = n.consumers[i];
        const Node& consumer = act->tmpl->nodes[c.node];
        if (consumer.kind == NodeKind::kTupleGet) {
          if (consumer.tuple_index >= mv.elems.size()) {
            throw RuntimeError("decomposition in '" + act->tmpl->name + "' needs element " +
                               std::to_string(consumer.tuple_index) + " of a " +
                               std::to_string(mv.elems.size()) + "-element package");
          }
          extracted.emplace_back(c.node, mv.elems[consumer.tuple_index]);
        } else {
          write_slot(act, c, v, when);
        }
      }
      v = Value();  // drop the package before forwarding elements
      for (auto& [get_node, element] : extracted) {
        deliver(act, get_node, std::move(element), when);
      }
      return;
    }

    for (size_t i = 0; i < k; ++i) {
      const PortRef& c = n.consumers[i];
      Value copy = (i + 1 == k) ? std::move(v) : v;
      write_slot(act, c, std::move(copy), when);
    }
    // k == 0: the value has no consumers (e.g. an unused binding when
    // optimization is off) and is simply dropped.
  }

  /// Fill one input port; fire the node when its last input arrives.
  void write_slot(const std::shared_ptr<Activation>& act, const PortRef& c, Value v,
                  Ticks when) {
    const Node& consumer = act->tmpl->nodes[c.node];
    act->slots[consumer.input_offset + c.port] = std::move(v);
    if constexpr (Machine::kVirtualTime) {
      act->ready_at[c.node] = std::max(act->ready_at[c.node], when);
    }
    if (act->pending[c.node].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Ticks ready = 0;
      if constexpr (Machine::kVirtualTime) ready = act->ready_at[c.node];
      machine().enqueue_ready(act, c.node, ready);
    }
  }

  /// Affinity preference (§9.3) of a ready node: a worker of this
  /// machine, or -1 for none. Shared by both machines' enqueue paths; the
  /// Machine owns the affinity memory.
  int affinity_preference(const Activation& act, const Node& n) {
    // Cost-profiled critical-path nodes pin to the producing worker's
    // own deque (no affinity routing, no cross-worker inbox hop): the
    // long pole either runs next locally or is stolen priority-major,
    // which is the cheapest path to "long-pole operators launch first".
    // Schedule-only — values/faults are unchanged (equivalence-tested).
    if (exec_config().cost_hints && n.cost_hinted && n.on_critical_path) return -1;
    int target = -1;
    if (exec_config().affinity == AffinityMode::kOperator) {
      if (n.kind == NodeKind::kOperator && n.op_index >= 0) {
        target = machine().last_affinity_worker(n.op_index);
      } else if (n.kind == NodeKind::kFused && !n.fused.empty()) {
        // A fused chain follows its first member: that is the operator
        // whose cached state the chain touches first.
        target = machine().last_affinity_worker(n.fused.front().op_index);
      }
    } else if (exec_config().affinity == AffinityMode::kData &&
               (n.kind == NodeKind::kOperator || n.kind == NodeKind::kFused)) {
      int target_domain = -1;
      size_t best_bytes = 0;
      for (uint16_t i = 0; i < n.num_inputs; ++i) {
        const Value& v = act.slots[n.input_offset + i];
        if (v.kind() == Value::Kind::kBlock) {
          const auto& blk = v.block_ptr();
          const size_t bytes = blk->byte_size();
          const int home = blk->home_worker();
          if (home >= 0 && bytes > best_bytes) {
            best_bytes = bytes;
            target = home;
            target_domain = blk->home_domain();
          }
        }
      }
      // Under a multi-domain topology, data affinity resolves to the
      // block's home *domain*: any worker there reads the block at
      // intra-domain cost, so placement spreads these nodes across the
      // domain's workers instead of serializing on the one home worker.
      if (target >= 0 && target_domain >= 0 && exec_config().locality_scheduling &&
          topology().num_domains > 1) {
        target = pick_worker_in_domain(target_domain, target);
      }
    }
    // A preference naming no worker of this machine (a block homed by a
    // larger one) is no preference: both machines place it as unbound.
    return target < num_workers_ ? target : -1;
  }

  /// Data-affinity target inside NUMA domain `domain`. Under the
  /// w % num_domains striping rule its workers are {d, d+D, d+2D, ...}
  /// below the worker count; a per-domain cursor rotates among them, so
  /// placement spreads across the home domain instead of hammering the
  /// single home worker. The cursor is the only shared state: relaxed,
  /// and deterministic on the single-threaded simulator.
  int pick_worker_in_domain(int domain, int home_worker) {
    const int domains = topology().num_domains;
    if (domain < 0 || domains <= 1 || domain >= domains) return home_worker;
    const int members = (num_workers_ - domain + domains - 1) / domains;
    if (members <= 1) return home_worker;
    const uint32_t k =
        domain_rr_[static_cast<size_t>(domain)].fetch_add(1, std::memory_order_relaxed);
    return domain + static_cast<int>(k % static_cast<uint32_t>(members)) * domains;
  }

  /// NUMA model (§9.3), run on every operator invocation's arguments
  /// (invoke_operator): pulling a block homed outside `worker`'s domain
  /// charges the inter-domain per-KiB transfer plus the migration surcharge
  /// (spun on the wall clock or added to the virtual clock, per the
  /// Machine) and re-homes the block to the puller; a same-domain pull
  /// from another worker charges the (usually zero) intra-domain rate.
  /// A no-op — one predictable branch — when the topology models no
  /// cost.
  void pull_blocks(std::span<Value> args, int worker, Ticks& cost) {
    if (!numa_active_) return;
    const MemoryTopology& topo = topology();
    const int dom = topo.domain_of(worker);
    for (Value& v : args) {
      if (v.kind() != Value::Kind::kBlock) continue;
      BlockBase& blk = *v.block_ptr();
      const int home_w = blk.home_worker();
      if (home_w >= 0) {
        const int home_d = blk.home_domain();
        const int64_t kb = static_cast<int64_t>(blk.byte_size() / 1024) + 1;
        if (home_d != dom) {
          machine().charge_remote(home_d, dom, static_cast<int64_t>(blk.byte_size()),
                                  topo.inter_kib_cost_ns * kb + topo.migration_cost_ns, cost);
          StatShard& c = counters();
          c.remote_block_moves.fetch_add(1, std::memory_order_relaxed);
          c.remote_bytes_pulled.fetch_add(blk.byte_size(), std::memory_order_relaxed);
        } else if (home_w != worker && topo.intra_kib_cost_ns > 0) {
          machine().charge_remote(home_d, dom, static_cast<int64_t>(blk.byte_size()),
                                  topo.intra_kib_cost_ns * kb, cost);
        }
      }
      blk.set_home(worker, dom);
    }
  }

  // -- Operator invocation ---------------------------------------------------

  using PooledValues = std::vector<Value, PoolAllocator<Value>>;

  /// Fill `to` with a copy of `from` that an attempt can run on without
  /// touching `from`: shallow Value copies (a reference bump) for
  /// read-only arguments, deep clones for destructive ones (the kUnique
  /// path mutates those in place).
  static void copy_preimage(const OperatorDef& def, const PooledValues& from,
                            PooledValues& to) {
    to.clear();
    to.reserve(from.size());
    for (size_t i = 0; i < from.size(); ++i) {
      if (def.is_destructive(i) && from[i].kind() == Value::Kind::kBlock) {
        to.push_back(Value::of_block(from[i].block_ptr()->clone()));
      } else {
        to.push_back(from[i]);
      }
    }
  }

  /// Run one operator invocation on its gathered `args`: block pulls,
  /// the arrival count, retry eligibility and the pre-image `snapshot`,
  /// the attempt loop (injection, trace, fault capture and backoff), the
  /// CoW counters, the affinity note and the result's home. `args` and
  /// `snapshot` are pool-backed buffers the caller owns, so a fused chain
  /// reuses one pair for all its members. `member` is null for a
  /// kOperator node; for a kFused node it names the member running,
  /// which supplies the operator, the injection node (its pre-fusion id,
  /// so structural specs land the same faults with fusion on or off) and
  /// the fault provenance, and has no consume classes. Returns false when
  /// the invocation faulted: the fault is recorded and `result` stays
  /// unset, so the node's consumers starve and the run drains to the
  /// smallest-seq fault.
  bool invoke_operator(Activation& act, uint32_t node, const FusedMember* member,
                       PooledValues& args, PooledValues& snapshot, int worker, Ticks start,
                       Ticks& cost, Value& result) {
    const Node& n = act.tmpl->nodes[node];
    const int op_index = member != nullptr ? member->op_index : n.op_index;
    const OperatorDef& def = registry_.at(static_cast<size_t>(op_index));
    const std::span<const ConsumeClass> classes =
        member != nullptr ? std::span<const ConsumeClass>()
                          : std::span<const ConsumeClass>(n.input_classes);
    pull_blocks(std::span<Value>(args.data(), args.size()), worker, cost);
    counters().operator_invocations.fetch_add(1, std::memory_order_relaxed);
    const FaultPlan* plan = plan_.get();
    const uint64_t arrival = machine().op_arrival(def, op_index, plan != nullptr);

    // Retry eligibility: pure operators always qualify (fused members
    // are pure by construction); destructive operators only when the
    // sole-consumer analysis proved every destructive argument kUnique,
    // so the pre-image snapshot captures the entire effect of a failed
    // attempt. kUnknown destructive arguments stay ineligible — their
    // copy-on-write behavior depends on live reference counts a snapshot
    // would perturb.
    int budget = 0;
    if (max_retries_ > 0) {
      bool eligible = true;
      for (size_t i = 0; i < args.size(); ++i) {
        if (def.is_destructive(i) &&
            !(i < classes.size() && classes[i] == ConsumeClass::kUnique)) {
          eligible = false;
          break;
        }
      }
      if (eligible) budget = max_retries_;
    }
    // Restores re-clone from the snapshot, so a second retry never sees
    // the first retry's writes.
    if (budget > 0) copy_preimage(def, args, snapshot);
    const std::span<const ConsumeClass> fast_classes =
        exec_config().unique_fastpath ? classes : std::span<const ConsumeClass>();

    for (uint32_t attempt = 0;; ++attempt) {
      FaultDecision fd;
      if (plan != nullptr) {
        fd = plan->decide(def.info.name, def.info.pure, act.seq,
                          member != nullptr ? member->orig_node : node, arrival, attempt);
        if (fd.action != FaultAction::kNone) {
          counters().faults_injected.fetch_add(1, std::memory_order_relaxed);
        }
      }
      bool injected = false;
      machine().busy_begin(worker, def);
      machine().trace_from_core(worker, start + cost, TraceEventKind::kOpBegin, op_index,
                                attempt);
      try {
        if (fd.action == FaultAction::kThrow) {
          injected = true;
          throw RuntimeError("injected fault (attempt " + std::to_string(attempt) + ")");
        }
        if (fd.action == FaultAction::kStall) machine().charge_stall(fd.stall_ns, cost);
        const Ticks t0 = machine().op_clock_begin();
        OpContext ctx(def, std::span<Value>(args.data(), args.size()), worker, fast_classes);
        result = def.fn(ctx);
        machine().busy_end(worker);
        // Cost and CoW stats come from the successful attempt only;
        // failed attempts contribute their backoff.
        machine().op_note_success(t0, def, op_index, arrival, cost);
        if (ctx.cow_copies() != 0 || ctx.cow_skipped() != 0) {
          StatShard& c = counters();
          c.cow_copies.fetch_add(ctx.cow_copies(), std::memory_order_relaxed);
          c.cow_skipped.fetch_add(ctx.cow_skipped(), std::memory_order_relaxed);
        }
        if (fd.action == FaultAction::kCorrupt) {
          // Deterministically wrong-shaped result: consumers that
          // decompose it fault with exact provenance.
          result = Value::tuple({});
        }
        machine().trace_from_core(worker, start + cost, TraceEventKind::kOpEnd, op_index,
                                  attempt);
        break;
      } catch (...) {
        machine().busy_end(worker);
        machine().trace_from_core(worker, start + cost, TraceEventKind::kOpEnd, op_index,
                                  attempt);
        if (attempt < static_cast<uint32_t>(budget)) {
          counters().retries.fetch_add(1, std::memory_order_relaxed);
          machine().trace_from_core(worker, start + cost, TraceEventKind::kRetry, op_index,
                                    attempt + 1);
          const int shift = attempt < 20 ? static_cast<int>(attempt) : 20;
          machine().charge_backoff(retry_backoff_ns_ << shift, cost);
          PooledValues restored{PoolAllocator<Value>(&pool_)};
          copy_preimage(def, snapshot, restored);
          args = std::move(restored);
          continue;
        }
        if (budget > 0) counters().retries_exhausted.fetch_add(1, std::memory_order_relaxed);
        FaultInfo f =
            member != nullptr
                ? make_member_fault(act, *member, std::current_exception(), injected)
                : make_fault(act, node, std::current_exception(), injected);
        machine().record_fault_from_core(act.run, std::move(f), op_index, start + cost,
                                         worker);
        return false;
      }
    }
    if (exec_config().affinity == AffinityMode::kOperator) {
      machine().note_affinity(op_index, worker);
    }
    if (result.kind() == Value::Kind::kBlock) {
      result.block_ptr()->set_home(worker, topology().domain_of(worker));
    }
    return true;
  }

  // -- Node execution --------------------------------------------------------

  /// Execute one ready node. Returns the node's cost on the Machine's
  /// clock (base overhead + operator time + charged stalls/backoff);
  /// wall-clock machines get 0 and ignore it. `start` is the node's
  /// virtual start time (0 on wall-clock machines).
  Ticks execute_node(const std::shared_ptr<Activation>& act_ptr, uint32_t node, int worker,
                     Ticks start) {
    Activation& act = *act_ptr;
    const Node& n = act.tmpl->nodes[node];
    counters().nodes_executed.fetch_add(1, std::memory_order_relaxed);

    auto take_input = [&](uint16_t port) -> Value {
      return std::move(act.slots[n.input_offset + port]);
    };
    auto take_all_inputs = [&]() {
      std::vector<Value> values;
      values.reserve(n.num_inputs);
      for (uint16_t i = 0; i < n.num_inputs; ++i) values.push_back(take_input(i));
      return values;
    };

    Ticks cost = machine().node_base_cost();
    switch (n.kind) {
      case NodeKind::kConst:
      case NodeKind::kParam:
      case NodeKind::kTupleGet:
        // Seeded at spawn / decomposed eagerly in deliver(); never queued.
        throw RuntimeError("internal: node kind should not reach the ready queue");

      case NodeKind::kOperator: {
        // Operator arguments live in pool-backed scratch vectors. What
        // the node path still takes from the global heap is each call's
        // parameter vector and the closure each conditional arm builds.
        PooledValues args{PoolAllocator<Value>(&pool_)};
        PooledValues snapshot{PoolAllocator<Value>(&pool_)};
        args.reserve(n.num_inputs);
        for (uint16_t i = 0; i < n.num_inputs; ++i) args.push_back(take_input(i));
        Value result;
        if (invoke_operator(act, node, nullptr, args, snapshot, worker, start, cost,
                            result)) {
          deliver(act_ptr, node, std::move(result), start + cost);
        }
        break;
      }

      case NodeKind::kFused: {
        // A fused chain (src/analysis/graph_opt.cpp): members run in
        // order inside this one scheduling step, so the node base cost,
        // queue traffic, and delivery are paid once per chain. Each
        // member is one invoke_operator call, with its own fault
        // provenance, injection identity, retry budget and trace events
        // — observably a sequence of operator runs minus the per-node
        // scheduling tax. A faulting member ends the chain undelivered.
        Value chain;
        bool chain_ok = true;
        // One pair of buffers for the whole chain: members run strictly
        // in sequence, so reusing it trims the per-member allocation the
        // fusion exists to avoid.
        PooledValues args{PoolAllocator<Value>(&pool_)};
        PooledValues snapshot{PoolAllocator<Value>(&pool_)};
        for (const FusedMember& member : n.fused) {
          args.clear();
          args.reserve(member.inputs.size());
          for (uint32_t slot : member.inputs) {
            args.push_back(slot == FusedMember::kChainInput
                               ? std::move(chain)
                               : std::move(act.slots[n.input_offset + slot]));
          }
          chain_ok =
              invoke_operator(act, node, &member, args, snapshot, worker, start, cost, chain);
          if (!chain_ok) break;
        }
        if (chain_ok) deliver(act_ptr, node, std::move(chain), start + cost);
        break;
      }

      case NodeKind::kTupleMake:
        deliver(act_ptr, node, Value::tuple(take_all_inputs()), start + cost);
        break;

      case NodeKind::kMakeClosure: {
        const Template* target = act.prog->templates[n.target_template].get();
        deliver(act_ptr, node, Value::closure(target, take_all_inputs()), start + cost);
        break;
      }

      case NodeKind::kCall: {
        const Template* target = act.prog->templates[n.target_template].get();
        spawn_child(act_ptr, node, target, take_all_inputs(), start + cost);
        break;
      }

      case NodeKind::kCallClosure: {
        Value callee = take_input(0);
        const Template* target = callee.as_closure().tmpl;
        const uint32_t given = n.num_inputs - 1u;
        if (given != target->explicit_params()) {
          throw RuntimeError("closure '" + target->name + "' expects " +
                             std::to_string(target->explicit_params()) +
                             " argument(s), got " + std::to_string(given));
        }
        std::vector<Value> params;
        std::vector<Value> captures = callee.take_closure_captures();
        params.reserve(given + captures.size());
        for (uint16_t i = 1; i < n.num_inputs; ++i) params.push_back(take_input(i));
        for (Value& cap : captures) params.push_back(std::move(cap));
        callee = Value();  // release the closure before the child can run
        spawn_child(act_ptr, node, target, std::move(params), start + cost);
        break;
      }

      case NodeKind::kIfDispatch: {
        const bool cond = take_input(0).truthy();
        // Take *both* closures: the untaken branch must release its
        // captured values now, so reference counts stay exact for
        // copy-on-write.
        Value then_clo = take_input(1);
        Value else_clo = take_input(2);
        Value chosen = cond ? std::move(then_clo) : std::move(else_clo);
        then_clo = Value();
        else_clo = Value();
        const Template* target = chosen.as_closure().tmpl;
        if (target->explicit_params() != 0) {
          throw RuntimeError("internal: branch template '" + target->name +
                             "' must take no explicit arguments");
        }
        std::vector<Value> params = chosen.take_closure_captures();
        chosen = Value();  // release the closure before the child can run
        spawn_child(act_ptr, node, target, std::move(params), start + cost);
        break;
      }

      case NodeKind::kParMap: {
        Value fn = take_input(0);
        Value pkg = take_input(1);
        const Template* target = fn.as_closure().tmpl;
        if (target->explicit_params() != 1) {
          throw RuntimeError("parmap: '" + target->name +
                             "' must take exactly one argument, takes " +
                             std::to_string(target->explicit_params()));
        }
        const size_t k = pkg.as_tuple().elems.size();
        if (k == 0) {
          deliver(act_ptr, node, Value::tuple({}), start + cost);
          break;
        }
        // Prepare every child's parameters first, then release the package
        // and closure, so element reference counts are exact before any
        // child can run (the copy-on-write discipline).
        std::vector<std::vector<Value>> params_list;
        params_list.reserve(k);
        {
          const MultiValue& mv = pkg.as_tuple();
          const Closure& c = fn.as_closure();
          for (size_t i = 0; i < k; ++i) {
            std::vector<Value> params;
            params.reserve(1 + c.captures.size());
            params.push_back(mv.elems[i]);
            for (const Value& cap : c.captures) params.push_back(cap);
            params_list.push_back(std::move(params));
          }
        }
        pkg = Value();
        fn = Value();
        auto collector = std::allocate_shared<Collector>(PoolAllocator<Collector>(&pool_));
        collector->results.resize(k);
        collector->remaining.store(static_cast<int>(k), std::memory_order_relaxed);
        if (n.is_tail && exec_config().enable_tail_calls) {
          collector->cont_act = act.cont_act;
          collector->cont_node = act.cont_node;
        } else {
          collector->cont_act = act_ptr;
          collector->cont_node = node;
        }
        for (size_t i = 0; i < k; ++i) {
          spawn(act.prog, target, std::move(params_list[i]), nullptr, 0,
                fault_seq_child(act.seq, node, static_cast<uint32_t>(i) + 1), start + cost,
                act.run, collector, static_cast<uint32_t>(i));
        }
        break;
      }

      case NodeKind::kReturn: {
        Value v = take_input(0);
        if (act.collector != nullptr) {
          Collector& col = *act.collector;
          col.results[act.collector_index] = std::move(v);
          if constexpr (Machine::kVirtualTime) {
            col.latest = std::max(col.latest, start + cost);
          }
          if (col.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            const Ticks done = Machine::kVirtualTime ? col.latest : start + cost;
            Value package = Value::tuple(std::move(col.results));
            if (col.cont_act != nullptr) {
              deliver(col.cont_act, col.cont_node, std::move(package), done);
            } else {
              machine().deliver_final(act.run, std::move(package), done);
            }
          }
        } else if (act.cont_act != nullptr) {
          deliver(act.cont_act, act.cont_node, std::move(v), start + cost);
        } else {
          machine().deliver_final(act.run, std::move(v), start + cost);
        }
        break;
      }
    }
    return cost;
  }

  // -- Diagnostics -----------------------------------------------------------

  /// Live-activation ledger: every activation is linked into one of
  /// kLedgerShards address-sharded intrusive lists from its constructor
  /// to its destructor. It feeds the deadlock diagnostic, the watchdog
  /// and the budget dumps. Linking costs a shard lock and no
  /// allocation; an activation's destructor cannot unlink (and so
  /// cannot free what a dump reads) while a dump holds its shard. Each
  /// shard has a cache line to itself, so workers locking different
  /// shards do not contend on one line.
  static constexpr size_t kLedgerShards = 16;
  struct alignas(64) LedgerShard {
    std::mutex mu;
    Activation* head = nullptr;
  };

  LedgerShard& ledger_shard(const Activation* a) {
    // Activations sit in 256-byte pool objects, so consecutive ones land
    // in consecutive shards.
    return ledger_[(reinterpret_cast<uintptr_t>(a) >> 8) % kLedgerShards];
  }

  void ledger_link(Activation* a) {
    LedgerShard& s = ledger_shard(a);
    std::lock_guard<std::mutex> lock(s.mu);
    a->ledger_next = s.head;
    if (s.head != nullptr) s.head->ledger_prev = a;
    s.head = a;
  }

  void ledger_unlink(Activation* a) {
    LedgerShard& s = ledger_shard(a);
    std::lock_guard<std::mutex> lock(s.mu);
    (a->ledger_prev != nullptr ? a->ledger_prev->ledger_next : s.head) = a->ledger_next;
    if (a->ledger_next != nullptr) a->ledger_next->ledger_prev = a->ledger_prev;
  }

  /// Call `fn` on every live activation, one shard lock at a time.
  template <class Fn>
  void for_each_live(Fn fn) {
    for (LedgerShard& s : ledger_) {
      std::lock_guard<std::mutex> lock(s.mu);
      for (const Activation* a = s.head; a != nullptr; a = a->ledger_next) fn(*a);
    }
  }

  /// Summarize one live activation for the stranded dump (deadlock and
  /// watchdog diagnostics), if it has unfired nodes.
  static void append_stranded(const Activation& a, std::vector<StrandedActivation>& out) {
    StrandedActivation sa;
    sa.seq = a.seq;
    sa.tmpl = a.tmpl->name;
    for (uint32_t i = 0; i < a.tmpl->nodes.size(); ++i) {
      const Node& n = a.tmpl->nodes[i];
      if (n.num_inputs == 0) continue;
      const int32_t missing = a.pending[i].load(std::memory_order_relaxed);
      if (missing <= 0) continue;
      if (missing == n.num_inputs) {
        ++sa.never_fed;
      } else {
        sa.partial.push_back(StrandedNode{i, fault_node_label(n), missing, n.num_inputs});
      }
    }
    if (!sa.partial.empty() || sa.never_fed > 0) out.push_back(std::move(sa));
  }

  // -- Core state ------------------------------------------------------------

  Machine& machine() { return *static_cast<Machine*>(this); }

  const OperatorRegistry& registry_;
  const ExecConfig* exec_config_ = nullptr;
  int num_workers_ = 1;
  /// Whether the topology charges anything — the one branch the UMA hot
  /// path pays for the whole NUMA model.
  bool numa_active_ = false;
  /// Per-domain cursors of pick_worker_in_domain; empty under a single-
  /// domain topology, where it is never called.
  std::vector<std::atomic<uint32_t>> domain_rr_;
  /// The pool and the ledger are declared before everything that
  /// allocates from or links into them: a base-class subobject outlives
  /// all members of the derived Machine, so every pooled activation is
  /// freed (and unlinked) before either goes away.
  ActivationPool pool_;
  std::array<LedgerShard, kLedgerShards> ledger_;
  /// Indexed by Machine::stat_shard_index(); sized by init_exec.
  std::vector<StatShard> stat_shards_;

  // Per-run state. The program is carried per activation (Activation::prog),
  // so a batch of instances may span several compiled programs.
  std::shared_ptr<const FaultPlan> plan_;
  int max_retries_ = 0;
  int64_t retry_backoff_ns_ = 0;
};

}  // namespace delirium
