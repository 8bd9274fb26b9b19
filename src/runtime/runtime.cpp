#include "src/runtime/runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "src/runtime/instance.h"

namespace delirium {

namespace {
// Which Runtime's worker pool the current thread belongs to, if any.
// Lets the enqueue path distinguish the owner fast path (push to this
// worker's own deque) from the cross-thread injection path. A thread can
// belong to at most one pool; nested Runtimes run on distinct threads.
thread_local Runtime* tls_runtime = nullptr;
thread_local int tls_worker = -1;
}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

Runtime::Runtime(const OperatorRegistry& registry, RuntimeConfig config)
    : ExecutorCore<Runtime>(registry), config_(config) {
  int n = config_.num_workers;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  config_.num_workers = n;
  apply_exec_env_overrides(config_);
  // One counter shard per worker plus one for threads outside the pool.
  init_exec(&config_, n, n + 1);
  trace_enabled_ = config_.enable_tracing;
  if (trace_enabled_) {
    // One ring per worker plus one for the run's caller thread (root
    // spawn, watchdog). Allocated once; cleared per run.
    trace_rings_.resize(static_cast<size_t>(n) + 1);
    for (TraceRing& r : trace_rings_) r.init(config_.trace_capacity);
  }
  worker_data_.reserve(n);
  for (int w = 0; w < n; ++w) worker_data_.push_back(std::make_unique<WorkerData>());
  op_last_worker_ = std::vector<std::atomic<int>>(registry.size());
  for (auto& a : op_last_worker_) a.store(-1, std::memory_order_relaxed);
  op_arrivals_ = std::vector<std::atomic<uint64_t>>(registry.size());
  ws_.reserve(n);
  for (int w = 0; w < n; ++w) {
    ws_.push_back(std::make_unique<WsWorker>());
    ws_.back()->staged.reserve(kStagedReserve);
  }
  workers_.reserve(n);
  for (int w = 0; w < n; ++w) workers_.emplace_back([this, w] { worker_loop(w); });
}

Runtime::~Runtime() {
  // A parked worker re-checks stopping_ between prepare_wait and
  // commit_wait, and notify() bumps the epoch after this store: either
  // the worker's recheck sees the flag, or its commit sees the new epoch
  // and returns. Either way it reaches the exit check in worker_loop.
  stopping_.store(true, std::memory_order_release);
  for (auto& w : ws_) w->ec.notify();
  for (std::thread& t : workers_) t.join();
}

// ---------------------------------------------------------------------------
// Tracing (docs/OBSERVABILITY.md)
// ---------------------------------------------------------------------------

void Runtime::trace_at(int64_t ts, int worker, TraceEventKind kind, int32_t op,
                       int64_t arg) {
  TraceEvent e;
  e.ts = ts;
  e.seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  e.arg = arg;
  e.op = op;
  e.worker = static_cast<int16_t>(worker);
  e.kind = kind;
  // worker -1 is a thread outside the pool — only ever the run's caller —
  // and uses the extra ring at the end.
  const size_t ring = worker >= 0 ? static_cast<size_t>(worker) : trace_rings_.size() - 1;
  trace_rings_[ring].push(e);
}

void Runtime::ws_flush_pending_trace(int worker) {
  // Called between a successful pop and the item's end: the one window in
  // which this worker may write its ring (tracing.h).
  WsWorker& w = *ws_[worker];
  if (w.pending_steal_fails > 0) {
    trace(worker, TraceEventKind::kStealFail, -1, w.pending_steal_fails);
    w.pending_steal_fails = 0;
  }
  if (w.has_pending_park) {
    // A park may have begun before this run started (workers idle between
    // runs); clamp so timestamps stay within the run.
    int64_t ts = w.pending_park_ts - run_start_ticks_;
    if (ts < 0) ts = 0;
    trace_at(ts, worker, TraceEventKind::kPark, -1, w.pending_park_ns);
    w.has_pending_park = false;
    w.pending_park_ns = 0;
  }
}

// ---------------------------------------------------------------------------
// Fault handling (docs/ROBUSTNESS.md)
// ---------------------------------------------------------------------------

void Runtime::record_fault(RunState* rs, FaultInfo f, int32_t op_index) {
  counters().faults_raised.fetch_add(1, std::memory_order_relaxed);
  if (trace_enabled_) {
    // Recorded by the faulting worker (in its safe window) or, never in
    // practice today, by the caller thread into the external ring.
    const int self = (tls_runtime == this) ? tls_worker : -1;
    trace(self, TraceEventKind::kFaultRaise, op_index, static_cast<int64_t>(f.seq));
  }
  {
    std::lock_guard<std::mutex> lock(rs->mu);
    rs->faults.push_back(std::move(f));
  }
  // Default mode drains naturally: every fault reachable from the inputs
  // is captured, so the smallest-sequence-id winner is schedule-
  // independent. fail_fast trades that guarantee for latency.
  if (config_.fail_fast) cancel_run(rs);
}

void Runtime::cancel_run(RunState* rs) {
  rs->cancelled.store(true, std::memory_order_release);
  // No queue surgery needed: workers observe the flag before executing
  // and purge queued items as they pop them (counted in items_purged).
  // Workers are never parked while items remain queued, so the drain
  // needs no extra wakeups.
}

std::vector<StrandedActivation> Runtime::collect_stranded(const RunState* rs) {
  std::vector<StrandedActivation> out;
  for_each_live([&](const Activation& a) {
    if (a.run == rs) append_stranded(a, out);
  });
  // Attribute the dump to the owning instance in manager mode; a plain
  // single run (instance_id 0) renders exactly as before.
  if (rs->instance_id != 0) {
    for (StrandedActivation& sa : out) {
      sa.instance = rs->instance_id;
      sa.program = rs->program_name;
    }
  }
  return out;
}

std::string Runtime::dump_busy_workers() {
  std::string out;
  const Ticks now = now_ticks();
  for (size_t w = 0; w < worker_data_.size(); ++w) {
    WorkerData& wd = *worker_data_[w];
    std::lock_guard<std::mutex> lock(wd.busy_mu);
    if (wd.busy_op.empty()) continue;
    out += "  worker " + std::to_string(w) + ": executing '" + wd.busy_op + "' for " +
           std::to_string(now - wd.busy_since) + " ns\n";
  }
  if (out.empty()) out = "  (all workers idle)\n";
  return out;
}

void Runtime::fire_watchdog(RunState* rs) {
  counters().watchdog_fires.fetch_add(1, std::memory_order_relaxed);
  // The caller thread owns the external ring, so this write is safe even
  // while workers are still draining their queues.
  trace(-1, TraceEventKind::kWatchdog, -1, rs->watchdog_budget_ns);
  std::string instance_text;
  if (rs->instance_id != 0) {
    instance_text = " (instance " + std::to_string(rs->instance_id) + ": '" +
                    rs->program_name + "')";
  }
  rs->watchdog_message = build_watchdog_message(
      std::to_string(rs->watchdog_budget_ns / 1000000) + " ms",
      "busy workers:\n" + dump_busy_workers(), render_stranded(collect_stranded(rs)),
      instance_text);
  cancel_run(rs);
}

// ---------------------------------------------------------------------------
// MachineModel hooks (called by ExecutorCore)
// ---------------------------------------------------------------------------

void Runtime::enqueue_ready(const std::shared_ptr<Activation>& act, uint32_t node,
                            Ticks /*when*/) {
  const Node& n = act->tmpl->nodes[node];
  const int priority = queue_level(n);
  const int target = affinity_preference(*act, n);
  if (tls_runtime == this) {
    // A worker enqueues only while it executes an item: stage the new
    // item, and execute() publishes it when the item ends.
    ws_[tls_worker]->staged.push_back(StagedItem{WorkItem{act, node}, priority, target});
    return;
  }
  static_cast<RunState*>(act->run)->outstanding.fetch_add(1, std::memory_order_acq_rel);
  ws_enqueue(WorkItem{act, node}, priority, target);
}

int Runtime::stat_shard_index() const {
  // Workers count into their own shards; every other thread (the run's
  // caller, instance submitters) shares the last one.
  return tls_runtime == this ? tls_worker : num_workers_;
}

void Runtime::deliver_final(void* run, Value v, Ticks /*when*/) {
  RunState* rs = static_cast<RunState*>(run);
  std::lock_guard<std::mutex> lock(rs->mu);
  rs->result = std::move(v);
  rs->have_result = true;
}

void Runtime::trace_from_core(int worker, Ticks /*ts*/, TraceEventKind kind, int32_t op,
                              int64_t arg) {
  trace(worker, kind, op, arg);
}

void Runtime::record_fault_from_core(void* run, FaultInfo f, int32_t op_index,
                                     Ticks /*ts*/, int /*worker*/) {
  record_fault(static_cast<RunState*>(run), std::move(f), op_index);
}

namespace {
/// One-time probe of how many spin-kernel iterations fit in a
/// microsecond on this host. charge_remote spins calibrated bursts
/// between clock reads: polling now_ticks() every iteration spends most
/// of the budget inside the clock read itself, which made short
/// penalties wildly inaccurate.
uint64_t spin_iters_per_us() {
  static const uint64_t calibrated = [] {
    constexpr uint64_t kProbeIters = 1 << 16;
    volatile uint64_t sink = 0;
    const Ticks t0 = now_ticks();
    for (uint64_t i = 0; i < kProbeIters; ++i) sink = sink + i;
    const Ticks elapsed = std::max<Ticks>(now_ticks() - t0, 1);
    return std::max<uint64_t>(kProbeIters * 1000 / static_cast<uint64_t>(elapsed), 16);
  }();
  return calibrated;
}
}  // namespace

void Runtime::charge_remote(int /*domain_from*/, int /*domain_to*/, int64_t /*bytes*/,
                            Ticks penalty_ns, Ticks& /*cost*/) {
  // Models the stall of pulling a block across the interconnect
  // (Butterfly-style NUMA) as a calibrated spin: burn ~penalty_ns of CPU
  // in bursts sized by the one-time probe, re-reading the clock only
  // between bursts so the overshoot is bounded by one burst (~1 µs).
  if (penalty_ns <= 0) return;
  const Ticks deadline = now_ticks() + penalty_ns;
  volatile uint64_t sink = 0;
  while (now_ticks() < deadline) {
    const uint64_t burst = spin_iters_per_us();
    for (uint64_t i = 0; i < burst; ++i) sink = sink + i;
  }
}

void Runtime::charge_stall(Ticks ns, Ticks& /*cost*/) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

void Runtime::charge_backoff(Ticks ns, Ticks& /*cost*/) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

void Runtime::busy_begin(int worker, const OperatorDef& def) {
  if (!busy_tracking_.load(std::memory_order_relaxed)) return;
  WorkerData& wd = *worker_data_[worker];
  std::lock_guard<std::mutex> lock(wd.busy_mu);
  wd.busy_op = def.info.name;
  wd.busy_since = now_ticks();
}

void Runtime::busy_end(int worker) {
  if (!busy_tracking_.load(std::memory_order_relaxed)) return;
  WorkerData& wd = *worker_data_[worker];
  std::lock_guard<std::mutex> lock(wd.busy_mu);
  wd.busy_op.clear();
}

uint64_t Runtime::op_arrival(const OperatorDef& /*def*/, int op_index, bool has_plan) {
  // Arrival counters exist only for injection-plan selection here (the
  // simulator also needs them for cost replay, so it counts always).
  if (has_plan && op_index >= 0 && static_cast<size_t>(op_index) < op_arrivals_.size()) {
    return op_arrivals_[op_index].fetch_add(1, std::memory_order_relaxed);
  }
  return 0;
}

int Runtime::last_affinity_worker(int op_index) {
  // Operators registered after Runtime construction have no slot in
  // op_last_worker_ (it is sized from the registry at construction);
  // they schedule with no preference instead of indexing past the end.
  if (op_index >= 0 && static_cast<size_t>(op_index) < op_last_worker_.size()) {
    return op_last_worker_[op_index].load(std::memory_order_relaxed);
  }
  return -1;
}

void Runtime::note_affinity(int op_index, int worker) {
  if (op_index >= 0 && static_cast<size_t>(op_index) < op_last_worker_.size()) {
    op_last_worker_[op_index].store(worker, std::memory_order_relaxed);
  }
}

void Runtime::on_activation_created(Activation* act) {
  // Per-instance activation budget (instance.h). The first trip wins the
  // exchange, writes the deterministic diagnostic, and cancels only this
  // instance; siblings keep running. The count is schedule-independent
  // for deterministic programs, so the trip (and its message) is too.
  RunState* rs = static_cast<RunState*>(act->run);
  if (rs->max_activations == 0 && rs->manager == nullptr) return;
  const uint64_t n = rs->activations.fetch_add(1, std::memory_order_relaxed) + 1;
  if (rs->max_activations != 0 && n > rs->max_activations &&
      !rs->budget_tripped.exchange(true)) {
    {
      std::lock_guard<std::mutex> lock(rs->mu);
      rs->budget_fired = true;
      rs->budget_message = "instance budget: activation count exceeded " +
                           std::to_string(rs->max_activations) +
                           " (instance " + std::to_string(rs->instance_id) + ": '" +
                           rs->program_name + "'); cancelling instance";
    }
    cancel_run(rs);
  }
}

// ---------------------------------------------------------------------------
// Work-stealing scheduler
// ---------------------------------------------------------------------------
//
// Every enqueue lands in per-worker storage: a worker scheduling for
// itself (or with no affinity preference) pushes to its own lock-free
// deque; everything else — cross-worker affinity targets and calls from
// threads outside the pool — goes through the target's MPSC inbox. Idle
// workers park on a per-worker eventcount; enqueuers wake a parked
// worker only when one is advertised (one relaxed load on the hot path).
// The seq_cst fences below pair with the parking protocol in
// worker_loop: either the enqueuer observes the parked flag, or the
// parking worker's recheck observes the enqueued item.

void Runtime::ws_enqueue(WorkItem item, int priority, int target) {
  // The enqueue counters are bumped before the push: once the item is
  // visible, it may carry the run's last unit of outstanding work, and a
  // bump after that could land after the drain.
  const int self = (tls_runtime == this) ? tls_worker : -1;
  if (self >= 0 && (target < 0 || target == self)) {
    counters().sched_local_enqueues.fetch_add(1, std::memory_order_relaxed);
    if (!ws_[self]->deques[priority].push(std::move(item))) {
      // Ring full: spill into the own inbox — unbounded, still popped by
      // this worker, so no work is ever dropped.
      ws_[self]->inbox[priority].push(std::move(item));
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (num_parked_.load(std::memory_order_relaxed) > 0) ws_wake_any_parked();
    return;
  }

  int dest = target;
  if (dest < 0) {
    // Injection from outside the pool with no preference: prefer a
    // parked worker (it will wake anyway), else round-robin.
    const size_t n = ws_.size();
    const uint32_t start = inject_rr_.fetch_add(1, std::memory_order_relaxed);
    dest = static_cast<int>(start % n);
    for (size_t i = 0; i < n; ++i) {
      const size_t w = (start + i) % n;
      if (ws_[w]->parked.load(std::memory_order_acquire)) {
        dest = static_cast<int>(w);
        break;
      }
    }
  }
  counters().sched_injected_enqueues.fetch_add(1, std::memory_order_relaxed);
  ws_[dest]->inbox[priority].push(std::move(item));
  // A worker injecting is mid-execute (its safe window); anything else is
  // the run's caller, which records into the external ring.
  trace(self, TraceEventKind::kInject, -1, dest);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (ws_[dest]->parked.load(std::memory_order_relaxed)) ws_wake(dest);
}

void Runtime::ws_wake(int worker) {
  // Claim the parked flag: a flurry of enqueues costs one notify per
  // park episode, not one per item. The worker re-advertises the flag
  // before every wait, and treats a claimed flag as a wakeup (see the
  // commit condition in worker_loop), so a claim is never lost.
  if (!ws_[worker]->parked.exchange(false, std::memory_order_seq_cst)) return;
  counters().sched_wakeups.fetch_add(1, std::memory_order_relaxed);
  if (trace_enabled_) {
    // Attributed to the waking thread's ring: enqueuing workers are in
    // their safe window (a traced item keeps its unit of outstanding
    // work until after its last publication), everything else is the
    // caller's external ring.
    const int self = (tls_runtime == this) ? tls_worker : -1;
    trace(self, TraceEventKind::kWake, -1, worker);
  }
  ws_[worker]->ec.notify();
}

void Runtime::ws_wake_any_parked() {
  const size_t n = ws_.size();
  const uint32_t start = inject_rr_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    const size_t w = (start + i) % n;
    if (ws_[w]->parked.load(std::memory_order_acquire)) {
      ws_wake(static_cast<int>(w));
      return;
    }
  }
}

bool Runtime::ws_try_pop(int worker, WorkItem& out) {
  WsWorker& self = *ws_[worker];
  // Priority-major over the worker's own sources: the deque (LIFO — the
  // cache-warm path, and depth-first like the priority scheme it
  // serves) before the injection inbox (FIFO).
  for (int pri = 0; pri < kQueueLevels; ++pri) {
    if (self.deques[pri].pop(out)) return true;
    if (self.inbox[pri].pop(out)) return true;
  }
  // Dry: steal FIFO from victims' deque tops, priority-major across the
  // pool, starting from a rotating victim so thieves spread out. Under a
  // multi-domain topology with locality_scheduling, each priority level
  // is scanned twice — same-domain victims first, then cross-domain — so
  // a higher-priority item anywhere still wins, but within a level the
  // thief prefers work whose producer shares its memory domain.
  const size_t n = ws_.size();
  if (n > 1) {
    const MemoryTopology& topo = topology();
    const bool domain_aware =
        exec_config().locality_scheduling && topo.num_domains > 1;
    const int my_domain = topo.domain_of(worker);
    const size_t base = ++self.steal_rr;
    // pass < 0: scan every victim. pass 0: same-domain only. pass 1:
    // cross-domain only. The local/remote counter split is always keyed
    // off the victim's actual domain, so it stays honest even when the
    // scan order is locality-blind.
    const auto steal_scan = [&](int pri, int pass) {
      for (size_t i = 0; i < n; ++i) {
        const size_t victim = (base + i) % n;
        if (victim == static_cast<size_t>(worker)) continue;
        const bool same = topo.domain_of(static_cast<int>(victim)) == my_domain;
        if (pass >= 0 && same != (pass == 0)) continue;
        if (ws_[victim]->deques[pri].steal(out)) {
          counters().sched_steals.fetch_add(1, std::memory_order_relaxed);
          (same ? counters().sched_local_steals : counters().sched_remote_steals)
              .fetch_add(1, std::memory_order_relaxed);
          if (trace_enabled_) {
            // Holding the stolen item opens the safe window: flush what
            // accumulated while idle, then record the steal itself.
            ws_flush_pending_trace(worker);
            trace(worker, TraceEventKind::kSteal, -1, static_cast<int64_t>(victim));
          }
          return true;
        }
      }
      return false;
    };
    for (int pri = 0; pri < kQueueLevels; ++pri) {
      if (domain_aware) {
        if (steal_scan(pri, 0) || steal_scan(pri, 1)) return true;
      } else {
        if (steal_scan(pri, -1)) return true;
      }
    }
    counters().sched_failed_steals.fetch_add(1, std::memory_order_relaxed);
    // A dry scan happens while holding no item — outside the safe window
    // — so it only bumps an owner-private counter, flushed at the next
    // successful pop (see tracing.h).
    if (trace_enabled_) ++self.pending_steal_fails;
  }
  return false;
}

bool Runtime::ws_has_work(int worker) const {
  const WsWorker& self = *ws_[worker];
  for (int pri = 0; pri < kQueueLevels; ++pri) {
    if (!self.deques[pri].empty()) return true;
    if (!self.inbox[pri].empty()) return true;
  }
  for (size_t w = 0; w < ws_.size(); ++w) {
    if (w == static_cast<size_t>(worker)) continue;
    for (int pri = 0; pri < kQueueLevels; ++pri) {
      if (!ws_[w]->deques[pri].empty()) return true;
    }
  }
  return false;
}

void Runtime::worker_loop(int worker) {
  tls_runtime = this;
  tls_worker = worker;
  WsWorker& self = *ws_[worker];
  for (;;) {
    WorkItem item;
    if (ws_try_pop(worker, item)) {
      if (trace_enabled_) ws_flush_pending_trace(worker);
      execute(item, worker);
      item.act.reset();  // release before the next blocking wait
      continue;
    }
    // Nothing visible anywhere: advertise as parked, then recheck, then
    // sleep. The fence pairs with the enqueuers' fences: either they see
    // the parked flag (and notify), or the recheck sees their item.
    self.parked.store(true, std::memory_order_seq_cst);
    num_parked_.fetch_add(1, std::memory_order_seq_cst);
    const uint64_t epoch = self.ec.prepare_wait();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Sleep only while our flag is still up: a waker claims the flag
    // (exchange to false) before notifying, so a cleared flag means a
    // wakeup already happened — never sleep through it, or a later
    // inbox injection (unstealable) would see the flag down, skip its
    // notify, and strand the item.
    if (!stopping_.load(std::memory_order_acquire) && !ws_has_work(worker) &&
        self.parked.load(std::memory_order_seq_cst)) {
      counters().sched_parks.fetch_add(1, std::memory_order_relaxed);
      if (trace_enabled_) {
        // Parked while holding no item — outside the ring's safe window.
        // Accumulate the interval owner-privately; the next successful
        // pop flushes it as one kPark event (arg = total ns slept).
        const Ticks t0 = now_ticks();
        self.ec.commit_wait(epoch);
        if (!self.has_pending_park) {
          self.has_pending_park = true;
          self.pending_park_ts = t0;
        }
        self.pending_park_ns += now_ticks() - t0;
      } else {
        self.ec.commit_wait(epoch);
      }
    }
    self.parked.store(false, std::memory_order_relaxed);
    num_parked_.fetch_sub(1, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_acquire)) return;
  }
}

void Runtime::execute(const WorkItem& item, int worker) {
  RunState* rs = static_cast<RunState*>(item.act->run);
  const Node& n = item.act->tmpl->nodes[item.node];
  const int32_t op_index = n.kind == NodeKind::kOperator ? n.op_index : -1;
  if (rs->cancelled.load(std::memory_order_acquire)) {
    // Cancelled (fail_fast fault or watchdog): discard instead of run.
    counters().items_purged.fetch_add(1, std::memory_order_relaxed);
    trace(worker, TraceEventKind::kPurge, op_index);
  } else {
    try {
      execute_node(item.act, item.node, worker, 0);
    } catch (...) {
      // Operator faults are captured inside the core's invoke_operator
      // (they carry injection/retry context); anything reaching here is a
      // coordination-level failure at this node.
      record_fault(rs, make_fault(*item.act, item.node, std::current_exception()),
                   op_index);
    }
  }
  publish_staged(rs, worker);
}

void Runtime::publish_staged(RunState* rs, int worker) {
  // The executing item holds one unit of the run's outstanding work and
  // staged k new items, all of this run (children inherit the run
  // token). Net the accounting: k - 1 more units, added before the first
  // item becomes visible, so the count cannot reach zero while one is
  // still staged. That is nothing for k = 1 — the unit passes to the
  // child — and one decrement for k = 0. Once the last item is visible
  // the run may drain and `rs` die, so nothing after it touches `rs`.
  // With tracing on, the ring may still be written after a push
  // (kInject, kWake), so the item keeps its own unit until the end and
  // the window of tracing.h holds: add k, publish, subtract one.
  std::vector<StagedItem>& staged = ws_[worker]->staged;
  const int64_t k = static_cast<int64_t>(staged.size());
  const bool hold_unit = trace_enabled_ || k == 0;
  const int64_t add = hold_unit ? k : k - 1;
  if (add > 0) rs->outstanding.fetch_add(add, std::memory_order_acq_rel);
  for (StagedItem& s : staged) {
    assert(s.item.act->run == rs);
    ws_enqueue(std::move(s.item), s.priority, s.target);
  }
  staged.clear();
  if (hold_unit && rs->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (rs->manager != nullptr) {
      // Manager mode: the drained instance is finalized inline on this
      // worker (outcome selection, latency, counters) — the submitting
      // thread never blocks per instance.
      rs->manager->on_instance_drained(rs);
    } else {
      std::lock_guard<std::mutex> lock(rs->mu);
      rs->cv.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Run driver
// ---------------------------------------------------------------------------

Value Runtime::run(const CompiledProgram& program, std::vector<Value> args) {
  return run_function(program, program.entry_template().name, std::move(args));
}

Value Runtime::run_function(const CompiledProgram& program, const std::string& name,
                            std::vector<Value> args) {
  std::lock_guard<std::mutex> run_lock(run_mu_);

  // Reset per-run state *before* anything that can throw (the function
  // lookup, FaultPlan::from_env). Otherwise a failed run would leave
  // last_stats() / trace_events() showing the previous run's numbers —
  // exactly the stale-counter bug a --stats user cannot see past.
  reset_run_accumulators();

  const Template* tmpl = program.find(name);
  if (tmpl == nullptr) {
    throw RuntimeError("program has no function named '" + name + "'");
  }

  // Resolve the fault policy for this run (config + environment
  // overrides; an injection plan attached to the registry beats the
  // environment spec) — shared with SimRuntime via the core.
  resolve_run_policy();

  RunState rs;
  rs.watchdog_budget_ns = config_.watchdog_budget_ms * 1000000;
  busy_tracking_.store(rs.watchdog_budget_ns > 0, std::memory_order_relaxed);

  // Trace timestamps are relative to this point.
  run_start_ticks_ = now_ticks();

  // The root activation delivers its result to the run state directly.
  // Its shared_ptr is held across the drain so the deadlock diagnostic
  // and watchdog dump can still walk the stranded activation tree.
  std::shared_ptr<Activation> root;
  auto drain = [this, &rs] {
    std::unique_lock<std::mutex> lock(rs.mu);
    auto done = [&rs] { return rs.outstanding.load(std::memory_order_acquire) == 0; };
    if (rs.watchdog_budget_ns <= 0) {
      rs.cv.wait(lock, done);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(rs.watchdog_budget_ns);
    if (!rs.cv.wait_until(lock, deadline, done)) {
      rs.watchdog_fired = true;
      lock.unlock();
      fire_watchdog(&rs);  // takes ledger/worker locks; never rs.mu
      lock.lock();
      // Cancellation purges the queues, so the drain completes unless an
      // operator is truly wedged (which no cancellation could fix).
      rs.cv.wait(lock, done);
    }
  };
  try {
    root = spawn(&program, tmpl, std::move(args), nullptr, 0, fault_seq_root(), 0, &rs);
  } catch (...) {
    // The root spawn may fault after scheduling part of the activation;
    // drain whatever was enqueued before rethrowing.
    cancel_run(&rs);
    drain();
    finish_run_bookkeeping();
    throw;
  }
  drain();

  // Drain-time error selection: the winner is the fault with the
  // smallest deterministic sequence id, not the first one a worker
  // happened to record — identical across schedulers and worker counts.
  // A fault beats a delivered result (a faulting program must never
  // appear to succeed just because the result raced ahead).
  FaultInfo winner;
  bool have_fault = false;
  {
    std::lock_guard<std::mutex> lock(rs.mu);
    const int best = smallest_fault_index(rs.faults);
    if (best >= 0) {
      winner = std::move(rs.faults[static_cast<size_t>(best)]);
      have_fault = true;
    }
  }
  std::string stranded;
  if (!have_fault && !rs.have_result && !rs.watchdog_fired) {
    stranded = render_stranded(collect_stranded(&rs));
  }
  root.reset();
  finish_run_bookkeeping();

  if (have_fault) throw FaultError(std::move(winner));
  if (rs.watchdog_fired) throw RuntimeError(rs.watchdog_message);
  if (!rs.have_result) {
    throw RuntimeError(build_deadlock_message(/*simulated=*/false, stranded));
  }
  return std::move(rs.result);
}

void Runtime::reset_run_accumulators() {
  reset_core_run_state();
  for (auto& a : op_arrivals_) a.store(0, std::memory_order_relaxed);
  // Zero the published snapshot too: if this run throws before its drain
  // (unknown function, bad injection spec), last_stats() must not keep
  // reporting the previous run.
  stats_ = RunStats{};
  // Trace state. Workers never write their rings while idle (tracing.h),
  // so the caller may clear them here: the clear happens-before the
  // root's enqueue, which happens-before any worker's first pop/write.
  merged_trace_.clear();
  trace_overwritten_ = 0;
  overwritten_slices_.clear();
  trace_seq_.store(0, std::memory_order_relaxed);
  for (TraceRing& r : trace_rings_) r.clear();
}

void Runtime::finish_run_bookkeeping() {
  snapshot_core_stats(stats_);
  if (trace_enabled_) {
    // Safe to read every ring: the drain observed outstanding == 0, and
    // the acq_rel decrement chain gives this thread happens-before with
    // all workers' ring writes (tracing.h).
    for (const TraceRing& r : trace_rings_) {
      r.collect(merged_trace_);
      r.overwritten_slices(overwritten_slices_);
      trace_overwritten_ += r.overwritten();
    }
    sort_trace_events(merged_trace_);
    // Operator time: every attempt, retained or overwritten.
    OpSlicer slicer;
    OpSlice s;
    for (const TraceEvent& e : merged_trace_) {
      if (slicer.feed(e, s)) stats_.operator_ticks += s.duration;
    }
    for (const LogHistogram& h : overwritten_slices_) stats_.operator_ticks += h.total();
  }
}

}  // namespace delirium
