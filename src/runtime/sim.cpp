#include "src/runtime/sim.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "src/support/clock.h"

namespace delirium {

namespace {

/// The simulator's ready queue (docs/RUNTIME.md, "The virtual-time
/// executor"). It picks exactly what a scan of every queued item under
/// the pick rule would, at a cost independent of queue length:
///
///   * Items whose ready time lies past the watermark (the latest pick
///     time) wait in a min-heap keyed by ready time.
///   * Released items sit, per queue level, in seq-ordered buckets: one
///     per processor for items bound to it and one for unbound items (the
///     core's affinity_preference names only processors 0..P-1).
///   * A pick takes the first level holding a released item and compares
///     only the heads of its buckets, by (affinity class, seq).
///
/// Releasing behind the watermark is exact because the pick time never
/// decreases. It is max(earliest-free processor's time, earliest ready
/// time): a processor's free time only moves forward, and a node starting
/// at t enqueues its successors at or after t (virtual costs are never
/// negative), so whenever the processor term lies below the watermark no
/// queued item is ready before it. An item released once stays eligible.
template <class Activation>
class ReadyQueue {
 public:
  struct Item {
    std::shared_ptr<Activation> act;
    uint32_t node = 0;
    Ticks ready = 0;
    uint64_t seq = 0;  // enqueue order: FIFO within a bucket
  };

  /// A picked item, left in place until take(): the caller may still
  /// cancel its instance, and the purge sweep must then see it queued.
  struct Pick {
    uint32_t bucket = 0;
    uint32_t slot = 0;
  };

  /// `domain_aware` selects the four-class ladder (bound here, bound in
  /// this domain, unbound, bound elsewhere) over the three-class one.
  void configure(int num_procs, const MemoryTopology& topology, bool domain_aware) {
    procs_ = num_procs;
    domain_aware_ = domain_aware;
    per_level_ = static_cast<uint32_t>(procs_ + 1);
    proc_domain_.resize(static_cast<size_t>(procs_));
    for (int p = 0; p < procs_; ++p) {
      proc_domain_[static_cast<size_t>(p)] = domain_aware ? topology.domain_of(p) : 0;
    }
  }

  bool empty() const { return live_ == 0; }

  /// Queue a node at queue `level`, bound to processor `preferred` (or
  /// unbound when negative; never P or above).
  void push(std::shared_ptr<Activation> act, uint32_t node, Ticks ready, int level,
            int preferred) {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Item& item = slots_[slot];
    item.act = std::move(act);
    item.node = node;
    item.ready = ready;
    item.seq = next_seq_++;
    const uint32_t bucket = static_cast<uint32_t>(level) * per_level_ +
                            static_cast<uint32_t>(preferred < 0 ? procs_ : preferred);
    ++live_;
    if (ready <= watermark_) {
      release(bucket, slot);
    } else {
      waiting_.push_back(Waiting{ready, item.seq, bucket, slot});
      std::push_heap(waiting_.begin(), waiting_.end(), later_ready);
    }
  }

  /// Move the watermark to the next pick time for a processor free at
  /// `avail` and release every item ready by then. Queue must be
  /// non-empty. With released items present the earliest ready time is
  /// at most the watermark, and the monotone pick time makes it exactly
  /// max(avail, watermark).
  Ticks advance(Ticks avail) {
    const Ticks t = std::max(avail, released_ > 0 ? watermark_ : waiting_.front().ready);
    while (!waiting_.empty() && waiting_.front().ready <= t) {
      std::pop_heap(waiting_.begin(), waiting_.end(), later_ready);
      const Waiting w = waiting_.back();
      waiting_.pop_back();
      release(w.bucket, w.slot);
    }
    watermark_ = t;
    return t;
  }

  /// The item processor `p` takes at the watermark: the smallest
  /// (level, affinity class, seq) among released items, found by
  /// comparing the heads of the first non-empty level's buckets.
  /// advance() must have run since the last push.
  Pick pick(int p) const {
    for (size_t level = 0; level < level_released_.size(); ++level) {
      if (level_released_[level] == 0) continue;
      const uint32_t base = static_cast<uint32_t>(level) * per_level_;
      Pick best{0, 0};
      int best_class = std::numeric_limits<int>::max();
      uint64_t best_seq = 0;
      for (uint32_t offset = 0; offset < per_level_; ++offset) {
        const std::vector<Head>& bucket = buckets_[base + offset];
        if (bucket.empty()) continue;
        const int cls = affinity_class(offset, p);
        if (cls < best_class || (cls == best_class && bucket.front().seq < best_seq)) {
          best = Pick{base + offset, bucket.front().slot};
          best_class = cls;
          best_seq = bucket.front().seq;
        }
      }
      return best;
    }
    return Pick{0, 0};  // unreachable: advance() released something
  }

  const Item& at(const Pick& pick) const { return slots_[pick.slot]; }

  Item take(const Pick& pick) {
    std::vector<Head>& bucket = buckets_[pick.bucket];
    std::pop_heap(bucket.begin(), bucket.end(), later_seq);
    bucket.pop_back();
    --level_released_[pick.bucket / per_level_];
    --released_;
    --live_;
    free_.push_back(pick.slot);
    return std::move(slots_[pick.slot]);
  }

  /// Remove every queued item `doomed` selects, released or not, handing
  /// each to `on_purge` in seq (= enqueue) order.
  template <class Doomed, class OnPurge>
  void purge(Doomed doomed, OnPurge on_purge) {
    std::vector<uint32_t> victims;
    auto sweep = [&](auto& heap, auto order) {
      const auto keep_end = std::partition(heap.begin(), heap.end(), [&](const auto& e) {
        return !doomed(slots_[e.slot]);
      });
      for (auto it = keep_end; it != heap.end(); ++it) victims.push_back(it->slot);
      heap.erase(keep_end, heap.end());
      std::make_heap(heap.begin(), heap.end(), order);
    };
    sweep(waiting_, later_ready);
    for (size_t b = 0; b < buckets_.size(); ++b) {
      const size_t before = victims.size();
      sweep(buckets_[b], later_seq);
      const size_t gone = victims.size() - before;
      level_released_[b / per_level_] -= gone;
      released_ -= gone;
    }
    std::sort(victims.begin(), victims.end(),
              [&](uint32_t a, uint32_t b) { return slots_[a].seq < slots_[b].seq; });
    for (uint32_t slot : victims) {
      on_purge(slots_[slot]);
      slots_[slot].act.reset();
      free_.push_back(slot);
    }
    live_ -= victims.size();
  }

 private:
  struct Head {  // a released item in its bucket
    uint64_t seq;
    uint32_t slot;
  };
  struct Waiting {  // an item not yet released
    Ticks ready;
    uint64_t seq;
    uint32_t bucket;
    uint32_t slot;
  };
  // Heap orders (std heaps are max-heaps, so "later" sinks).
  static bool later_seq(const Head& a, const Head& b) { return a.seq > b.seq; }
  static bool later_ready(const Waiting& a, const Waiting& b) {
    return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
  }

  void release(uint32_t bucket, uint32_t slot) {
    if (buckets_.size() <= bucket) {
      const size_t levels = bucket / per_level_ + 1;
      buckets_.resize(levels * per_level_);
      level_released_.resize(levels, 0);
    }
    buckets_[bucket].push_back(Head{slots_[slot].seq, slot});
    std::push_heap(buckets_[bucket].begin(), buckets_[bucket].end(), later_seq);
    ++level_released_[bucket / per_level_];
    ++released_;
  }

  /// Rank of a bucket's items for processor `p`: 0 bound to p, then (on
  /// the four-class ladder) 1 bound in p's domain, then unbound, then
  /// bound elsewhere.
  int affinity_class(uint32_t offset, int p) const {
    const int off = static_cast<int>(offset);
    if (off == p) return 0;
    if (off == procs_) return domain_aware_ ? 2 : 1;  // unbound
    if (!domain_aware_) return 2;
    return proc_domain_[offset] == proc_domain_[static_cast<size_t>(p)] ? 1 : 3;
  }

  int procs_ = 1;
  bool domain_aware_ = false;
  uint32_t per_level_ = 2;
  std::vector<int> proc_domain_;

  std::vector<Item> slots_;  // slab; queue structures hold slot indices
  std::vector<uint32_t> free_;
  std::vector<Waiting> waiting_;         // min-heap by (ready, seq)
  std::vector<std::vector<Head>> buckets_;  // [level * (P + 1) + proc or P], min-heap by seq
  std::vector<size_t> level_released_;   // released items per level
  size_t released_ = 0;
  size_t live_ = 0;
  uint64_t next_seq_ = 0;
  Ticks watermark_ = std::numeric_limits<Ticks>::min();
};

}  // namespace

/// The virtual MachineModel: a discrete-event P-processor simulator
/// plugged into the shared ExecutorCore. One Impl per run.
struct SimRuntime::Impl : ExecutorCore<SimRuntime::Impl> {
  // Re-exposed for SimRuntime::run_function's faulting-run snapshot.
  using ExecutorCore<SimRuntime::Impl>::snapshot_core_stats;

  /// Per-instance state, pointed to by Activation::run. A plain run is a
  /// batch of one (id 0, no budgets), which keeps the single-instance
  /// path byte-identical — there is exactly one code path.
  struct SimInstance {
    uint64_t id = 0;  // 1-based in batch mode; 0 = plain single run
    std::string program_name;
    Ticks arrival = 0;
    uint64_t max_activations = 0;  // 0 = unlimited
    int64_t time_budget_ns = 0;    // virtual ns from arrival; 0 = none

    // Fault handling (docs/ROBUSTNESS.md): capture/retry is the core's;
    // this machine adds virtual-time backoff and the budgets. All state
    // is instance-scoped, which is the whole containment story: a fault
    // or budget kill cancels only this instance's queued work.
    std::vector<FaultInfo> faults;
    bool cancelled = false;
    bool budget_fired = false;
    std::string budget_message;
    uint64_t activations = 0;
    bool have_result = false;
    Value result;
    Ticks finish = 0;      // when the final result was delivered
    Ticks last_event = 0;  // end of the last executed item
    std::string spawn_error;
    /// Held until outcomes are assembled so budget/deadlock dumps can
    /// still walk the stranded activation tree.
    std::shared_ptr<Activation> root;
  };

  SimConfig config;

  using Queue = ReadyQueue<Activation>;
  Queue ready;  // indexed by level, affinity class and ready time
  std::vector<Ticks> proc_avail;
  std::vector<Ticks> proc_busy;

  /// Some instance was cancelled with work possibly queued: the drive
  /// loop sweeps the ready queue (in enqueue order, so purge traces are
  /// deterministic) before the next selection.
  bool purge_pending = false;
  bool watchdog_fired = false;  // the *global* virtual watchdog
  std::string watchdog_message;
  std::vector<std::unique_ptr<SimInstance>> instances;

  // Tracing (tracing.h): same kinds, same per-kind arg meanings, exact
  // virtual timestamps, one growable vector (single-threaded — no rings
  // needed, trace_capacity is ignored). Sequence numbers are the record
  // order.
  std::vector<TraceEvent> trace;
  uint64_t trace_seq = 0;
  bool tracing = false;

  std::vector<int> op_last_proc;  // operator-affinity memory

  /// Per-operator cost state, indexed by registry index and resolved from
  /// the config's name-keyed tables on an operator's first invocation in
  /// the run, so the per-node path never hashes an operator name.
  struct OpState {
    bool resolved = false;
    uint64_t occurrences = 0;  // invocation count: cost replay, nth= injection
    Ticks fixed_cost = 0;      // with config.fixed_costs
    const std::vector<Ticks>* replay = nullptr;  // config.replay_costs row
    std::vector<Ticks>* record = nullptr;        // config.record_costs row
  };
  std::vector<OpState> ops;

  Impl(const OperatorRegistry& r, const SimConfig& c)
      : ExecutorCore<SimRuntime::Impl>(r), config(c) {
    init_exec(&config, config.num_procs, 1);
    proc_avail.assign(config.num_procs, 0);
    proc_busy.assign(config.num_procs, 0);
    // Under a multi-domain topology with locality_scheduling the class
    // ladder grows a rung: bound-here, bound-same-domain, unbound,
    // bound-elsewhere — the virtual twin of Runtime's domain-aware steal
    // scan. Otherwise the three-class ladder (bound-here, unbound,
    // bound-elsewhere) applies.
    ready.configure(config.num_procs, topology(),
                    config.locality_scheduling && topology().num_domains > 1);
  }

  OpState& op_state(const OperatorDef& def, int op_index) {
    const size_t i = static_cast<size_t>(op_index);
    if (i >= ops.size()) ops.resize(std::max(registry_.size(), i + 1));
    OpState& s = ops[i];
    if (!s.resolved) {
      s.resolved = true;
      if (config.fixed_costs != nullptr) {
        const auto it = config.fixed_costs->find(def.info.name);
        s.fixed_cost = it != config.fixed_costs->end() ? it->second
                                                        : config.fixed_cost_default_ns;
      } else if (config.replay_costs != nullptr) {
        const auto it = config.replay_costs->per_op.find(def.info.name);
        if (it != config.replay_costs->per_op.end()) s.replay = &it->second;
      }
    }
    return s;
  }

  void trace_event(Ticks ts, int proc, TraceEventKind kind, int32_t op = -1,
                   int64_t arg = 0) {
    if (!tracing) return;
    TraceEvent e;
    e.ts = ts;
    e.seq = trace_seq++;
    e.arg = arg;
    e.op = op;
    e.worker = static_cast<int16_t>(proc);
    e.kind = kind;
    trace.push_back(e);
  }

  void record_fault(SimInstance* si, FaultInfo f, Ticks ts = 0, int proc = -1,
                    int32_t op_index = -1) {
    counters().faults_raised.fetch_add(1, std::memory_order_relaxed);
    trace_event(ts, proc, TraceEventKind::kFaultRaise, op_index,
                static_cast<int64_t>(f.seq));
    si->faults.push_back(std::move(f));
    if (config.fail_fast) {
      si->cancelled = true;
      purge_pending = true;
    }
  }

  /// Stranded dump over all live activations (`filter` null) or one
  /// instance's. Batch-mode entries are attributed to their instance.
  std::vector<StrandedActivation> collect_stranded(const SimInstance* filter = nullptr) {
    std::vector<StrandedActivation> out;
    for_each_live([&](const Activation& a) {
      const SimInstance* si = static_cast<const SimInstance*>(a.run);
      if (filter != nullptr && si != filter) return;
      const size_t before = out.size();
      append_stranded(a, out);
      if (si->id != 0) {
        for (size_t i = before; i < out.size(); ++i) {
          out[i].instance = si->id;
          out[i].program = si->program_name;
        }
      }
    });
    return out;
  }

  std::string instance_text(const SimInstance& si) const {
    return " (instance " + std::to_string(si.id) + ": '" + si.program_name + "')";
  }

  // -- MachineModel hooks (called by ExecutorCore) ---------------------------

  static constexpr bool kVirtualTime = true;

  Ticks node_base_cost() { return config.node_overhead_ns; }

  // One thread, one counter shard: every RunStats value is exact here.
  int stat_shard_index() const { return 0; }

  void enqueue_ready(const std::shared_ptr<Activation>& act, uint32_t node, Ticks when) {
    const Node& n = act->tmpl->nodes[node];
    // Mirror the threaded scheduler's counter schema: the simulator has
    // one virtual ready queue, so every enqueue is "local" and the
    // steal/park/wakeup counters stay zero.
    counters().sched_local_enqueues.fetch_add(1, std::memory_order_relaxed);
    const int level = queue_level(n);
    ready.push(act, node, when, level, affinity_preference(*act, n));
  }

  void deliver_final(void* run, Value v, Ticks when) {
    SimInstance* si = static_cast<SimInstance*>(run);
    si->result = std::move(v);
    si->have_result = true;
    si->finish = when;
  }

  void trace_from_core(int proc, Ticks ts, TraceEventKind kind, int32_t op, int64_t arg) {
    trace_event(ts, proc, kind, op, arg);
  }

  void record_fault_from_core(void* run, FaultInfo f, int32_t op_index, Ticks ts,
                              int proc) {
    record_fault(static_cast<SimInstance*>(run), std::move(f), ts, proc, op_index);
  }

  // Virtual NUMA pulls, injected stalls, and retry backoff are all
  // charged to the virtual clock instead of spun/slept — deterministic
  // and exact: the simulator charges precisely the topology's per-KiB +
  // migration penalty, whatever the domain pair. Virtual time never runs
  // backwards (the ready queue's watermark relies on it), so a negative
  // charge counts as zero.
  void charge_remote(int /*domain_from*/, int /*domain_to*/, int64_t /*bytes*/,
                     Ticks penalty_ns, Ticks& cost) {
    cost += std::max<Ticks>(penalty_ns, 0);
  }
  void charge_stall(Ticks ns, Ticks& cost) { cost += std::max<Ticks>(ns, 0); }
  void charge_backoff(Ticks ns, Ticks& cost) { cost += std::max<Ticks>(ns, 0); }

  // No wall-clock watchdog here (the virtual one lives in the run loop).
  void busy_begin(int /*proc*/, const OperatorDef& /*def*/) {}
  void busy_end(int /*proc*/) {}

  // Operators always run under the cost clock: their measured (or
  // replayed) wall time *is* the virtual cost model.
  Ticks op_clock_begin() { return now_ticks(); }

  void op_note_success(Ticks t0, const OperatorDef& def, int op_index, uint64_t occurrence,
                       Ticks& cost) {
    Ticks measured = now_ticks() - t0;
    OpState& op = op_state(def, op_index);
    if (config.record_costs != nullptr) {
      // The row is created on first success, so operators that never
      // complete leave no empty row behind.
      if (op.record == nullptr) op.record = &config.record_costs->per_op[def.info.name];
      op.record->push_back(measured);
    }
    if (config.fixed_costs != nullptr) {
      measured = op.fixed_cost;
    } else if (config.replay_costs != nullptr) {
      // Past the end of its row the default keeps wall time off the
      // virtual clock, so two replays still agree to the nanosecond.
      measured = op.replay != nullptr && occurrence < op.replay->size()
                     ? (*op.replay)[occurrence]
                     : config.fixed_cost_default_ns;
    }
    measured = std::max<Ticks>(measured, 0);
    cost += measured;
    counters().operator_ticks.fetch_add(measured, std::memory_order_relaxed);
  }

  uint64_t op_arrival(const OperatorDef& def, int op_index, bool /*has_plan*/) {
    // Counted unconditionally (unlike the threaded runtime): cost replay
    // needs the occurrence index even with no injection plan.
    return op_state(def, op_index).occurrences++;
  }

  int last_affinity_worker(int op_index) {
    return op_last_proc.size() > static_cast<size_t>(op_index) ? op_last_proc[op_index]
                                                              : -1;
  }

  void note_affinity(int op_index, int proc) {
    if (op_last_proc.size() <= static_cast<size_t>(op_index)) {
      op_last_proc.resize(registry_.size(), -1);
    }
    op_last_proc[op_index] = proc;
  }

  void on_activation_created(Activation* act) {
    // Per-instance activation budget, counted only when something could
    // consume it (a budget is set, or a batch instance reports the
    // count). The trip message matches the threaded runtime's byte for
    // byte — the activation count is schedule-independent.
    SimInstance* si = static_cast<SimInstance*>(act->run);
    if (si->id == 0 && si->max_activations == 0) return;
    ++si->activations;
    if (si->max_activations > 0 && si->activations > si->max_activations &&
        !si->budget_fired) {
      si->budget_fired = true;
      si->budget_message = "instance budget: activation count exceeded " +
                           std::to_string(si->max_activations) + instance_text(*si) +
                           "; cancelling instance";
      si->cancelled = true;
      purge_pending = true;
    }
  }

  // -- Discrete-event scheduler ----------------------------------------------

  /// Pick the next (processor, item) pair under the ready-queue policy,
  /// leaving the item queued until ready.take(). Returns false when
  /// nothing is queued.
  ///
  /// The pick rule: the earliest-free processor p starts at t = max(its
  /// free time, the earliest ready time). Among items ready by t the
  /// smallest (queue level, affinity class, seq) wins: priority level
  /// first; within a level, items bound to p, then unbound items, then
  /// items bound elsewhere — FIFO inside each class, mirroring Runtime's
  /// pop order. ReadyQueue evaluates it without scanning the queue.
  bool select(int& proc_out, Queue::Pick& pick_out, Ticks& start_out) {
    if (ready.empty()) return false;
    int p = 0;
    for (int i = 1; i < config.num_procs; ++i) {
      if (proc_avail[i] < proc_avail[p]) p = i;
    }
    start_out = ready.advance(proc_avail[p]);
    pick_out = ready.pick(p);
    proc_out = p;
    return true;
  }

  /// The discrete-event loop, shared by the single-run path and the
  /// batch path. Runs until nothing is ready (all instances drained or
  /// purged).
  void drive() {
    while (true) {
      if (purge_pending) {
        // An instance was cancelled (fail_fast fault, budget, watchdog):
        // sweep its queued items, in enqueue order so the purge trace is
        // deterministic. Siblings' items are untouched — this sweep *is*
        // the fault-containment boundary.
        purge_pending = false;
        ready.purge(
            [](const Queue::Item& it) {
              return static_cast<SimInstance*>(it.act->run)->cancelled;
            },
            [this](const Queue::Item& it) {
              counters().items_purged.fetch_add(1, std::memory_order_relaxed);
              if (tracing) {
                const Node& n = it.act->tmpl->nodes[it.node];
                trace_event(it.ready, -1, TraceEventKind::kPurge,
                            n.kind == NodeKind::kOperator ? n.op_index : -1);
              }
            });
        continue;
      }
      int proc;
      Queue::Pick pick;
      Ticks start;
      if (!select(proc, pick, start)) break;
      // Virtual-time watchdog: work would start past the *global* budget
      // with no result delivered — fully deterministic, unlike
      // wall-clock stall detection in the threaded runtime. Cancels
      // every instance (per-instance ceilings are time_budget_ns).
      if (config.watchdog_budget_ns > 0 && !watchdog_fired &&
          start > config.watchdog_budget_ns) {
        watchdog_fired = true;
        counters().watchdog_fires.fetch_add(1, std::memory_order_relaxed);
        trace_event(config.watchdog_budget_ns, -1, TraceEventKind::kWatchdog, -1,
                    config.watchdog_budget_ns);
        watchdog_message =
            build_watchdog_message(std::to_string(config.watchdog_budget_ns) + " virtual ns",
                                   "", render_stranded(collect_stranded()));
        for (auto& si : instances) si->cancelled = true;
        purge_pending = true;
        continue;
      }
      SimInstance* si = static_cast<SimInstance*>(ready.at(pick).act->run);
      // Per-instance virtual deadline: this instance's next work would
      // start past its ceiling. Reported as a structured stall, never an
      // exception, and never visible to siblings.
      if (si->time_budget_ns > 0 && !si->budget_fired &&
          start > si->arrival + si->time_budget_ns) {
        si->budget_fired = true;
        si->budget_message =
            "instance budget: no result within " + std::to_string(si->time_budget_ns) +
            " virtual ns" + instance_text(*si) + "; cancelling instance\n" +
            "stranded activations:\n" + render_stranded(collect_stranded(si));
        si->cancelled = true;
        purge_pending = true;
        continue;  // the sweep collects the selected item too
      }
      const Queue::Item item = ready.take(pick);
      Ticks cost = config.node_overhead_ns;
      try {
        cost = execute_node(item.act, item.node, proc, start);
      } catch (...) {
        // Coordination-level failure (operator faults are captured with
        // richer context inside the core's invoke_operator).
        const Node& n = item.act->tmpl->nodes[item.node];
        record_fault(si, make_fault(*item.act, item.node, std::current_exception()),
                     start, proc, n.kind == NodeKind::kOperator ? n.op_index : -1);
      }
      proc_avail[proc] = start + cost;
      proc_busy[proc] += cost;
      si->last_event = std::max(si->last_event, start + cost);
    }
  }

  SimResult run(const CompiledProgram& prog, const Template* tmpl, std::vector<Value> args) {
    tracing = config.enable_tracing;
    resolve_run_policy();

    // A plain run is a batch of one (id 0: no budgets, no dump
    // annotation), so the single-instance path *is* the instance path.
    instances.push_back(std::make_unique<SimInstance>());
    SimInstance& si = *instances.back();
    // The root shared_ptr is held across the drain so the deadlock and
    // watchdog diagnostics can walk the stranded activation tree.
    si.root = spawn(&prog, tmpl, std::move(args), nullptr, 0, fault_seq_root(), 0, &si);
    drive();

    // Drain-time error selection: identical to Runtime::run_function —
    // the smallest deterministic sequence id wins, and a fault beats a
    // delivered result.
    const int best = smallest_fault_index(si.faults);
    if (best >= 0) throw FaultError(std::move(si.faults[static_cast<size_t>(best)]));
    if (watchdog_fired) throw RuntimeError(watchdog_message);
    if (!si.have_result) {
      throw RuntimeError(
          build_deadlock_message(/*simulated=*/true, render_stranded(collect_stranded())));
    }
    SimResult result;
    result.result = std::move(si.result);
    result.makespan = si.finish;
    for (Ticks b : proc_busy) result.total_busy += b;
    result.proc_busy = proc_busy;
    snapshot_core_stats(result.stats);
    result.trace_events = trace;  // Impl keeps its copy for faulting-run retrieval
    return result;
  }

  SimBatchResult run_batch(const std::vector<SimInstanceRequest>& requests) {
    tracing = config.enable_tracing;
    resolve_run_policy();

    instances.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const SimInstanceRequest& req = requests[i];
      instances.push_back(std::make_unique<SimInstance>());
      SimInstance& si = *instances.back();
      si.id = i + 1;
      si.arrival = req.arrival;
      si.max_activations = req.max_activations;
      si.time_budget_ns = req.time_budget_ns;
      counters().instances_admitted.fetch_add(1, std::memory_order_relaxed);
      try {
        if (req.program == nullptr) throw RuntimeError("instance has no program");
        si.program_name = req.function.empty() ? req.program->entry_template().name
                                               : req.function;
        const Template* tmpl = req.program->find(si.program_name);
        if (tmpl == nullptr) {
          throw RuntimeError("program has no function named '" + si.program_name + "'");
        }
        // Every root shares fault_seq_root(), so an instance's fault
        // reports are byte-identical to its solo run.
        si.root = spawn(req.program, tmpl, std::vector<Value>(req.args), nullptr, 0,
                        fault_seq_root(), req.arrival, &si);
      } catch (const std::exception& e) {
        si.spawn_error = e.what();
        si.cancelled = true;
        purge_pending = true;
      }
    }
    drive();

    SimBatchResult out;
    out.outcomes.resize(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      SimInstance& si = *instances[i];
      SimInstanceOutcome& o = out.outcomes[i];
      o.activations = si.activations;
      o.finish = si.have_result ? si.finish : std::max(si.last_event, si.arrival);
      o.latency = o.finish - si.arrival;
      const int best = smallest_fault_index(si.faults);
      if (si.budget_fired) {
        o.budget_exceeded = true;
        o.message = si.budget_message;
        counters().instances_budget_killed.fetch_add(1, std::memory_order_relaxed);
      } else if (best >= 0) {
        o.have_fault = true;
        o.fault = std::move(si.faults[static_cast<size_t>(best)]);
        o.message = o.fault.render();
        counters().instances_faulted.fetch_add(1, std::memory_order_relaxed);
      } else if (!si.spawn_error.empty()) {
        o.message = si.spawn_error;
        counters().instances_faulted.fetch_add(1, std::memory_order_relaxed);
      } else if (si.have_result) {
        o.have_value = true;
        o.value = std::move(si.result);
        counters().instances_completed.fetch_add(1, std::memory_order_relaxed);
      } else if (watchdog_fired) {
        o.message = watchdog_message;
        counters().instances_faulted.fetch_add(1, std::memory_order_relaxed);
      } else {
        o.message = build_deadlock_message(/*simulated=*/true,
                                           render_stranded(collect_stranded(&si)));
        counters().instances_faulted.fetch_add(1, std::memory_order_relaxed);
      }
      out.makespan = std::max(out.makespan, o.finish);
    }
    for (auto& si : instances) si->root.reset();
    snapshot_core_stats(out.stats);
    return out;
  }
};

SimConfig SimConfig::sharded_cluster(int procs_per_shard) {
  SimConfig config;
  config.topology = MemoryTopology::cluster();
  config.num_procs = config.topology.num_domains * std::max(procs_per_shard, 1);
  return config;
}

SimRuntime::SimRuntime(const OperatorRegistry& registry, SimConfig config)
    : registry_(registry), config_(config) {
  if (config_.num_procs <= 0) config_.num_procs = 1;
  // Virtual time never runs backwards (see ReadyQueue).
  config_.node_overhead_ns = std::max<int64_t>(config_.node_overhead_ns, 0);
  // Same environment overrides as the threaded runtime.
  apply_exec_env_overrides(config_);
}

SimResult SimRuntime::run(const CompiledProgram& program, std::vector<Value> args) {
  return run_function(program, program.entry_template().name, std::move(args));
}

SimBatchResult SimRuntime::run_instances(const std::vector<SimInstanceRequest>& requests) {
  Impl impl(registry_, config_);
  SimBatchResult result = impl.run_batch(requests);
  last_trace_ = impl.trace;
  last_stats_ = result.stats;
  return result;
}

SimResult SimRuntime::run_function(const CompiledProgram& program, const std::string& name,
                                   std::vector<Value> args) {
  const Template* tmpl = program.find(name);
  if (tmpl == nullptr) {
    throw RuntimeError("program has no function named '" + name + "'");
  }
  Impl impl(registry_, config_);
  try {
    SimResult result = impl.run(program, tmpl, std::move(args));
    last_trace_ = result.trace_events;
    last_stats_ = result.stats;
    return result;
  } catch (...) {
    // Keep the trace and counters reachable across a faulting run, like
    // Runtime::trace_events() / Runtime::last_stats().
    last_trace_ = std::move(impl.trace);
    impl.snapshot_core_stats(last_stats_);
    throw;
  }
}

CostTable calibrate_costs(const OperatorRegistry& registry, const CompiledProgram& program,
                          int runs) {
  std::vector<CostTable> samples(std::max(runs, 1));
  for (CostTable& table : samples) {
    SimConfig config;
    config.num_procs = 1;
    config.record_costs = &table;
    SimRuntime sim(registry, config);
    sim.run(program);
  }
  // Per-invocation median across the calibration runs.
  CostTable merged;
  for (const auto& [op, costs] : samples[0].per_op) {
    std::vector<Ticks>& out = merged.per_op[op];
    out.resize(costs.size());
    for (size_t i = 0; i < costs.size(); ++i) {
      std::vector<Ticks> values;
      values.reserve(samples.size());
      for (const CostTable& table : samples) {
        auto it = table.per_op.find(op);
        if (it != table.per_op.end() && i < it->second.size()) values.push_back(it->second[i]);
      }
      std::sort(values.begin(), values.end());
      out[i] = values.empty() ? 0 : values[values.size() / 2];
    }
  }
  return merged;
}

}  // namespace delirium
