#include "src/runtime/instance.h"

#include <chrono>
#include <utility>

namespace delirium {

const char* instance_outcome_name(InstanceOutcome o) {
  switch (o) {
    case InstanceOutcome::kCompleted: return "completed";
    case InstanceOutcome::kFaulted: return "faulted";
    case InstanceOutcome::kBudgetExhausted: return "budget_exhausted";
    case InstanceOutcome::kOverload: return "overload";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

InstanceManager::InstanceManager(Runtime& rt, InstanceManagerConfig config)
    : rt_(&rt), config_(config), run_lock_(rt.run_mu_) {
  // The session is one "run" from the machine's point of view: counters
  // and trace rings reset here and are published at destruction,
  // so last_stats()/trace_events() describe the whole session.
  rt_->reset_run_accumulators();
  rt_->resolve_run_policy();
  rt_->run_start_ticks_ = now_ticks();
  rt_->busy_tracking_.store(config_.track_busy_workers, std::memory_order_relaxed);
}

InstanceManager::InstanceManager(SimRuntime& sim, InstanceManagerConfig config)
    : sim_(&sim), config_(config) {}

InstanceManager::~InstanceManager() {
  if (sim_ != nullptr) {
    // Run anything still queued so every submitted instance has a result
    // and the counters are final.
    flush_sim();
    return;
  }
  {
    // Wait for every admitted instance to finalize. Cancellation purges
    // the queues, so this completes unless an operator is truly wedged —
    // the same contract as a plain run()'s drain.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      for (const auto& s : slots_) {
        if (!s->done) return false;
      }
      return true;
    });
    stop_monitor_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  rt_->busy_tracking_.store(false, std::memory_order_relaxed);
  rt_->finish_run_bookkeeping();
}

// ---------------------------------------------------------------------------
// Admission + launch
// ---------------------------------------------------------------------------

InstanceBudget InstanceManager::effective_budget(const InstanceBudget& b) const {
  InstanceBudget out = b;
  if (out.max_activations == 0) out.max_activations = config_.default_budget.max_activations;
  if (out.time_budget_ns == 0) out.time_budget_ns = config_.default_budget.time_budget_ns;
  return out;
}

uint64_t InstanceManager::submit(InstanceRequest req) {
  uint64_t id = 0;
  Slot* slot = nullptr;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::make_unique<Slot>());
    id = slots_.size();
    slot = slots_.back().get();
    slot->result.id = id;
    // Reject-newest shed: occupancy counts admitted-but-not-collected
    // instances and changes only on submit()/wait(), so this decision is
    // a pure function of the caller's call sequence — deterministic
    // regardless of how fast workers drain.
    if (config_.admission_capacity > 0 && occupancy_ >= config_.admission_capacity) {
      shed = true;
      slot->done = true;
      slot->result.outcome = InstanceOutcome::kOverload;
      slot->result.error = "admission control: capacity " +
                           std::to_string(config_.admission_capacity) +
                           " reached; instance " + std::to_string(id) + " shed";
      ++counters_.shed;
    } else {
      ++occupancy_;
      ++counters_.admitted;
      ++counters_.live;
    }
  }
  if (shed) {
    if (rt_ != nullptr) {
      rt_->counters().instances_shed.fetch_add(1, std::memory_order_relaxed);
    }
    return id;
  }
  if (rt_ != nullptr) {
    launch_threaded(slot, id, std::move(req));
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    sim_pending_.emplace_back(id, std::move(req));
  }
  return id;
}

void InstanceManager::launch_threaded(Slot* slot, uint64_t id, InstanceRequest req) {
  rt_->counters().instances_admitted.fetch_add(1, std::memory_order_relaxed);
  const InstanceBudget budget = effective_budget(req.budget);
  auto rs = std::make_unique<Runtime::RunState>();
  Runtime::RunState* prs = rs.get();
  prs->manager = this;
  prs->instance_id = id;
  prs->max_activations = budget.max_activations;
  prs->time_budget_ns = budget.time_budget_ns;
  prs->submit_ticks = now_ticks();
  // +1 submission token: holds the instance open across the root spawn so
  // a transient outstanding == 0 mid-spawn cannot finalize it early.
  prs->outstanding.store(1, std::memory_order_relaxed);

  // Resolve the entry template before publishing the RunState: once it is
  // in the slot the budget monitor may read program_name concurrently.
  const Template* tmpl = nullptr;
  std::string spawn_error;
  try {
    if (req.program == nullptr) throw RuntimeError("instance has no program");
    prs->program_name =
        req.function.empty() ? req.program->entry_template().name : req.function;
    tmpl = req.program->find(prs->program_name);
    if (tmpl == nullptr) {
      throw RuntimeError("program has no function named '" + prs->program_name + "'");
    }
  } catch (const std::exception& e) {
    spawn_error = e.what();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    slot->rs = std::move(rs);
    if (budget.time_budget_ns > 0) ensure_monitor_locked();
  }

  if (spawn_error.empty()) {
    try {
      // Every root shares fault_seq_root(), so this instance's fault
      // reports are byte-identical to its solo run.
      prs->root = rt_->spawn(req.program, tmpl, std::move(req.args), nullptr, 0,
                             fault_seq_root(), 0, prs);
    } catch (const std::exception& e) {
      spawn_error = e.what();
    }
  }
  if (!spawn_error.empty()) {
    {
      std::lock_guard<std::mutex> lock(prs->mu);
      prs->spawn_error = std::move(spawn_error);
    }
    // Drain whatever a partial spawn may have enqueued.
    rt_->cancel_run(prs);
  }

  // Release the submission token; if the instance already drained (or the
  // spawn failed before enqueuing anything) this thread finalizes it.
  if (prs->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    on_instance_drained(prs);
  }
}

// ---------------------------------------------------------------------------
// Finalize (threaded; runs on whichever thread drained the instance)
// ---------------------------------------------------------------------------

void InstanceManager::on_instance_drained(Runtime::RunState* rs) {
  InstanceResult res;
  res.id = rs->instance_id;
  res.activations = rs->activations.load(std::memory_order_relaxed);
  bool deadlocked = false;
  {
    std::lock_guard<std::mutex> lock(rs->mu);
    rs->finalized = true;
    // Outcome priority mirrors the simulator's run_batch and the solo
    // run(): a budget trip beats the faults it caused; the drain winner
    // (smallest deterministic sequence id) beats a delivered result.
    const int best = smallest_fault_index(rs->faults);
    if (rs->budget_fired) {
      res.outcome = InstanceOutcome::kBudgetExhausted;
      res.error = rs->budget_message;
    } else if (best >= 0) {
      res.outcome = InstanceOutcome::kFaulted;
      res.have_fault = true;
      res.fault = std::move(rs->faults[static_cast<size_t>(best)]);
      res.error = res.fault.render();
    } else if (!rs->spawn_error.empty()) {
      res.outcome = InstanceOutcome::kFaulted;
      res.error = rs->spawn_error;
    } else if (rs->have_result) {
      res.outcome = InstanceOutcome::kCompleted;
      res.value = std::move(rs->result);
    } else {
      res.outcome = InstanceOutcome::kFaulted;
      deadlocked = true;
    }
  }
  if (deadlocked) {
    // Dump before releasing the root: the stranded tree is alive only
    // while the root holds it.
    res.error =
        build_deadlock_message(/*simulated=*/false,
                               render_stranded(rt_->collect_stranded(rs)));
  }
  res.latency_ns = now_ticks() - rs->submit_ticks;
  rs->root.reset();

  switch (res.outcome) {
    case InstanceOutcome::kCompleted:
      rt_->counters().instances_completed.fetch_add(1, std::memory_order_relaxed);
      break;
    case InstanceOutcome::kBudgetExhausted:
      rt_->counters().instances_budget_killed.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      rt_->counters().instances_faulted.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* slot = slots_[res.id - 1].get();
    --counters_.live;
    switch (res.outcome) {
      case InstanceOutcome::kCompleted: ++counters_.completed; break;
      case InstanceOutcome::kBudgetExhausted: ++counters_.budget_killed; break;
      default: ++counters_.faulted; break;
    }
    latencies_.push_back(res.latency_ns);
    slot->result = std::move(res);
    slot->done = true;
    // Notify under the lock: once it is released, a waiting destructor
    // may see every slot done and destroy cv_ before this worker's
    // notify would run.
    cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Wall-time budget monitor (threaded)
// ---------------------------------------------------------------------------

void InstanceManager::ensure_monitor_locked() {
  if (monitor_.joinable()) return;
  monitor_ = std::thread([this] { monitor_loop(); });
}

void InstanceManager::monitor_loop() {
  const auto poll =
      std::chrono::milliseconds(config_.budget_poll_ms > 0 ? config_.budget_poll_ms : 1);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_monitor_) {
    monitor_cv_.wait_for(lock, poll);
    if (stop_monitor_) return;
    // Collect candidates under mu_, then release it: the per-instance
    // work below takes rs->mu, and finalize takes rs->mu then mu_ —
    // holding both here would invert that order. The RunStates are owned
    // by slots_, which live until the manager is destroyed, so the raw
    // pointers stay valid after the unlock.
    std::vector<Runtime::RunState*> candidates;
    for (const auto& s : slots_) {
      if (s->rs != nullptr && !s->done && s->rs->time_budget_ns > 0) {
        candidates.push_back(s->rs.get());
      }
    }
    lock.unlock();
    const Ticks now = now_ticks();
    for (Runtime::RunState* rs : candidates) {
      if (now - rs->submit_ticks < rs->time_budget_ns) continue;
      if (rs->budget_tripped.exchange(true)) continue;
      // Build the diagnostic before taking rs->mu: the stranded dump
      // takes ledger shard locks, which must never nest under rs->mu.
      std::string msg = "instance budget: no result within " +
                        std::to_string(rs->time_budget_ns / 1000000) + " ms (instance " +
                        std::to_string(rs->instance_id) + ": '" + rs->program_name +
                        "'); cancelling instance\n";
      if (config_.track_busy_workers) {
        msg += "busy workers:\n" + rt_->dump_busy_workers();
      }
      msg += "stranded activations:\n" + render_stranded(rt_->collect_stranded(rs));
      {
        std::lock_guard<std::mutex> g(rs->mu);
        // The instance may have drained between the exchange and here; a
        // finalized instance keeps its real outcome.
        if (!rs->finalized) {
          rs->budget_fired = true;
          rs->budget_message = std::move(msg);
        }
      }
      rt_->cancel_run(rs);
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Sim mode: batch flush
// ---------------------------------------------------------------------------

void InstanceManager::flush_sim() {
  std::unique_lock<std::mutex> lock(mu_);
  if (sim_pending_.empty()) return;
  std::vector<std::pair<uint64_t, InstanceRequest>> pending = std::move(sim_pending_);
  sim_pending_.clear();

  std::vector<SimInstanceRequest> reqs;
  reqs.reserve(pending.size());
  for (auto& [id, req] : pending) {
    (void)id;
    SimInstanceRequest sr;
    sr.program = req.program;
    sr.function = std::move(req.function);
    sr.args = std::move(req.args);
    const InstanceBudget budget = effective_budget(req.budget);
    sr.max_activations = budget.max_activations;
    sr.time_budget_ns = budget.time_budget_ns;
    sr.arrival = req.arrival;
    reqs.push_back(std::move(sr));
  }
  SimBatchResult batch = sim_->run_instances(reqs);
  // Each flush is one virtual machine; stats() reflects the most recent
  // batch's machine counters (the instances_* tallies stay cumulative).
  sim_stats_ = batch.stats;

  for (size_t i = 0; i < pending.size(); ++i) {
    Slot* slot = slots_[pending[i].first - 1].get();
    SimInstanceOutcome& o = batch.outcomes[i];
    InstanceResult& r = slot->result;
    r.activations = o.activations;
    r.latency_ns = o.latency;
    if (o.budget_exceeded) {
      r.outcome = InstanceOutcome::kBudgetExhausted;
      r.error = std::move(o.message);
      ++counters_.budget_killed;
    } else if (o.have_value) {
      r.outcome = InstanceOutcome::kCompleted;
      r.value = std::move(o.value);
      ++counters_.completed;
    } else {
      r.outcome = InstanceOutcome::kFaulted;
      r.have_fault = o.have_fault;
      if (o.have_fault) r.fault = std::move(o.fault);
      r.error = std::move(o.message);
      ++counters_.faulted;
    }
    --counters_.live;
    latencies_.push_back(o.latency);
    slot->done = true;
  }
  lock.unlock();
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

InstanceResult InstanceManager::wait(uint64_t id) {
  if (sim_ != nullptr) flush_sim();
  std::unique_lock<std::mutex> lock(mu_);
  if (id == 0 || id > slots_.size()) {
    throw RuntimeError("no instance with id " + std::to_string(id));
  }
  Slot* slot = slots_[id - 1].get();
  cv_.wait(lock, [slot] { return slot->done; });
  if (!slot->collected) {
    slot->collected = true;
    // Collecting releases the admission slot (shed instances never held
    // one). Capacity frees only here — on a caller action — so shed
    // decisions stay deterministic.
    if (slot->result.outcome != InstanceOutcome::kOverload) --occupancy_;
  }
  return slot->result;
}

std::vector<InstanceResult> InstanceManager::wait_all() {
  size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = slots_.size();
  }
  std::vector<InstanceResult> out;
  out.reserve(n);
  for (uint64_t id = 1; id <= n; ++id) out.push_back(wait(id));
  return out;
}

InstanceCounters InstanceManager::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<int64_t> InstanceManager::latencies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latencies_;
}

RunStats InstanceManager::stats() const {
  RunStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sim_ != nullptr) out = sim_stats_;
  }
  if (rt_ != nullptr) rt_->snapshot_core_stats(out);
  // The manager's tallies are authoritative: the machine never sees shed
  // requests, and a sim session may span several batches.
  std::lock_guard<std::mutex> lock(mu_);
  out.instances_admitted = counters_.admitted;
  out.instances_completed = counters_.completed;
  out.instances_faulted = counters_.faulted;
  out.instances_budget_killed = counters_.budget_killed;
  out.instances_shed = counters_.shed;
  return out;
}

}  // namespace delirium
