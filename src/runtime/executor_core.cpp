#include "src/runtime/executor_core.h"

#include <cassert>
#include <cstring>
#include <string_view>

namespace delirium {

// ---------------------------------------------------------------------------
// Environment overrides shared by both executors
// ---------------------------------------------------------------------------

void apply_exec_env_overrides(ExecConfig& config) {
  config.enable_tracing = env_flag("DELIRIUM_TRACE", config.enable_tracing);
  config.trace_capacity = static_cast<size_t>(
      env_int("DELIRIUM_TRACE_CAPACITY", static_cast<int64_t>(config.trace_capacity), 1,
              int64_t{1} << 32));
  config.cost_hints = env_flag("DELIRIUM_COST_HINTS", config.cost_hints);
  const size_t current_affinity = static_cast<size_t>(config.affinity);
  config.affinity = static_cast<AffinityMode>(
      env_choice("DELIRIUM_AFFINITY", {"none", "operator", "data"}, current_affinity));
  if (const auto spec = env_raw("DELIRIUM_TOPOLOGY"); spec.has_value()) {
    config.topology = parse_topology(*spec, "DELIRIUM_TOPOLOGY");
  }
  config.locality_scheduling = env_flag("DELIRIUM_LOCALITY", config.locality_scheduling);
}

// ---------------------------------------------------------------------------
// ActivationPool
// ---------------------------------------------------------------------------

namespace {
#ifndef NDEBUG
constexpr std::byte kPoolPoison{0xDD};
/// How far into a retired object the poison extends: enough to catch a
/// stale write without touching the whole 16 KiB class on every free.
constexpr size_t kPoisonLimit = 64;

/// Reset-on-reuse check: the poison written at deallocate must be
/// intact, or something wrote through a retired activation.
void check_poison(const void* node, size_t cls_bytes) {
  const std::byte* p = static_cast<const std::byte*>(node);
  for (size_t i = sizeof(void*); i < std::min(cls_bytes, kPoisonLimit); ++i) {
    assert(p[i] == kPoolPoison && "stale write to a pooled object detected on reuse");
  }
}
#endif

/// Registry of live pools keyed by (pointer, generation), consulted
/// when a thread magazine must flush nodes to a pool it is no longer
/// bound to: an absent entry means the nodes point into freed chunks
/// and are simply dropped. The generation disambiguates a new pool
/// constructed at a dead pool's address. Leaked on purpose so
/// thread-exit flushes stay valid during static teardown.
std::mutex& pool_registry_mu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<std::pair<ActivationPool*, uint64_t>>& pool_registry() {
  static auto* pools = new std::vector<std::pair<ActivationPool*, uint64_t>>;
  return *pools;
}

uint64_t next_pool_id() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

ActivationPool::ActivationPool() : id_(next_pool_id()) {
  std::lock_guard<std::mutex> lock(pool_registry_mu());
  pool_registry().emplace_back(this, id_);
}

ActivationPool::~ActivationPool() {
  std::lock_guard<std::mutex> lock(pool_registry_mu());
  auto& pools = pool_registry();
  pools.erase(std::remove(pools.begin(), pools.end(), std::make_pair(this, id_)),
              pools.end());
}

ActivationPool::TlsCache::~TlsCache() { flush_all(*this); }

int ActivationPool::size_class(size_t bytes) {
  if (bytes == 0) bytes = 1;
  size_t cls_bytes = kMinClassBytes;
  for (size_t cls = 0; cls < kNumClasses; ++cls, cls_bytes <<= 1) {
    if (bytes <= cls_bytes) return static_cast<int>(cls);
  }
  return -1;  // larger than the biggest class: global heap
}

ActivationPool::TlsCache& ActivationPool::bound_cache() {
  thread_local TlsCache cache;
  if (cache.owner != this || cache.owner_id != id_) {
    flush_all(cache);
    cache.tally = claim_tally();
    cache.owner = this;
    cache.owner_id = id_;
  }
  return cache;
}

ActivationPool::Tally* ActivationPool::claim_tally() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Tally>& t : tallies_) {
    if (!t->bound) {
      t->bound = true;
      return t.get();
    }
  }
  tallies_.push_back(std::make_unique<Tally>());
  tallies_.back()->bound = true;
  return tallies_.back().get();
}

void ActivationPool::reset_counters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Tally>& t : tallies_) {
    t->pooled.store(0, std::memory_order_relaxed);
    t->allocated.store(0, std::memory_order_relaxed);
  }
}

uint64_t ActivationPool::sum(std::atomic<uint64_t> Tally::*count) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const std::unique_ptr<Tally>& t : tallies_) {
    n += ((*t).*count).load(std::memory_order_relaxed);
  }
  return n;
}

void* ActivationPool::allocate(size_t bytes) {
  TlsCache& cache = bound_cache();
  const int cls = size_class(bytes);
  if (cls < 0) {
    cache.tally->allocated.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
  }
  const size_t cls_bytes = kMinClassBytes << static_cast<size_t>(cls);
  if (FreeNode* node = cache.free[cls]; node != nullptr) {
    cache.free[cls] = node->next;
    --cache.count[cls];
#ifndef NDEBUG
    check_poison(node, cls_bytes);
#endif
    cache.tally->pooled.fetch_add(1, std::memory_order_relaxed);
    return node;
  }
  return refill_and_allocate(cache, cls, cls_bytes);
}

void* ActivationPool::refill_and_allocate(TlsCache& cache, int cls, size_t cls_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (FreeNode* node = free_[cls]; node != nullptr) {
    free_[cls] = node->next;
    // Tow a batch of recycled objects into the magazine while we hold
    // the lock, so the next kRefillBatch-1 allocations stay lock-free.
    uint32_t moved = 0;
    while (moved + 1 < kRefillBatch && free_[cls] != nullptr) {
      FreeNode* extra = free_[cls];
      free_[cls] = extra->next;
      extra->next = cache.free[cls];
      cache.free[cls] = extra;
      ++moved;
    }
    cache.count[cls] += moved;
#ifndef NDEBUG
    check_poison(node, cls_bytes);
#endif
    cache.tally->pooled.fetch_add(1, std::memory_order_relaxed);
    return node;
  }
  // Nothing to recycle anywhere: carve exactly one fresh object, so the
  // pooled/allocated split stays an honest recycle-vs-fresh count.
  if (chunk_used_ + cls_bytes > kChunkBytes) {
    chunks_.push_back(std::make_unique<std::byte[]>(kChunkBytes));
    chunk_used_ = 0;
  }
  void* p = chunks_.back().get() + chunk_used_;
  chunk_used_ += cls_bytes;
  cache.tally->allocated.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void ActivationPool::deallocate(void* p, size_t bytes) noexcept {
  const int cls = size_class(bytes);
  if (cls < 0) {
    ::operator delete(p);
    return;
  }
#ifndef NDEBUG
  const size_t cls_bytes = kMinClassBytes << static_cast<size_t>(cls);
  std::memset(static_cast<std::byte*>(p) + sizeof(FreeNode*), static_cast<int>(kPoolPoison),
              std::min(cls_bytes, kPoisonLimit) - sizeof(FreeNode*));
#endif
  TlsCache& cache = bound_cache();
  FreeNode* node = static_cast<FreeNode*>(p);
  node->next = cache.free[cls];
  cache.free[cls] = node;
  if (++cache.count[cls] >= kCacheCap) flush_half(cache, cls);
}

void ActivationPool::flush_half(TlsCache& cache, int cls) noexcept {
  FreeNode* batch = nullptr;
  uint32_t moved = 0;
  while (moved < kCacheCap / 2 && cache.free[cls] != nullptr) {
    FreeNode* node = cache.free[cls];
    cache.free[cls] = node->next;
    node->next = batch;
    batch = node;
    ++moved;
  }
  cache.count[cls] -= moved;
  std::lock_guard<std::mutex> lock(mu_);
  while (batch != nullptr) {
    FreeNode* node = batch;
    batch = node->next;
    node->next = free_[cls];
    free_[cls] = node;
  }
}

void ActivationPool::flush_all(TlsCache& cache) noexcept {
  ActivationPool* owner = cache.owner;
  const uint64_t owner_id = cache.owner_id;
  Tally* tally = cache.tally;
  cache.owner = nullptr;
  cache.owner_id = 0;
  cache.tally = nullptr;
  if (owner == nullptr) return;
  std::lock_guard<std::mutex> registry_lock(pool_registry_mu());
  const auto& pools = pool_registry();
  if (std::find(pools.begin(), pools.end(), std::make_pair(owner, owner_id)) ==
      pools.end()) {
    // The owner died: its chunks (and these nodes) are already freed.
    cache.free.fill(nullptr);
    cache.count.fill(0);
    return;
  }
  std::lock_guard<std::mutex> lock(owner->mu_);
  tally->bound = false;
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    while (cache.free[cls] != nullptr) {
      FreeNode* node = cache.free[cls];
      cache.free[cls] = node->next;
      node->next = owner->free_[cls];
      owner->free_[cls] = node;
    }
    cache.count[cls] = 0;
  }
}

// ---------------------------------------------------------------------------
// StatShard
// ---------------------------------------------------------------------------

void StatShard::reset() {
  activations_created.store(0);
  // live_activations is a gauge (activations alive right now), not a
  // per-run counter — it survives the reset.
  peak_live_activations.store(0);
  nodes_executed.store(0);
  operator_invocations.store(0);
  cow_copies.store(0);
  cow_skipped.store(0);
  remote_block_moves.store(0);
  remote_bytes_pulled.store(0);
  operator_ticks.store(0);
  sched_local_enqueues.store(0);
  sched_injected_enqueues.store(0);
  sched_steals.store(0);
  sched_failed_steals.store(0);
  sched_local_steals.store(0);
  sched_remote_steals.store(0);
  sched_parks.store(0);
  sched_wakeups.store(0);
  sched_hint_promotions.store(0);
  sched_cost_promotions.store(0);
  faults_raised.store(0);
  faults_injected.store(0);
  retries.store(0);
  retries_exhausted.store(0);
  items_purged.store(0);
  watchdog_fires.store(0);
  instances_admitted.store(0);
  instances_completed.store(0);
  instances_faulted.store(0);
  instances_budget_killed.store(0);
  instances_shed.store(0);
}

void StatShard::add_to(RunStats& out) const {
  out.activations_created += activations_created.load();
  out.peak_live_activations += peak_live_activations.load();
  out.nodes_executed += nodes_executed.load();
  out.operator_invocations += operator_invocations.load();
  out.cow_copies += cow_copies.load();
  out.cow_skipped += cow_skipped.load();
  out.remote_block_moves += remote_block_moves.load();
  out.remote_bytes_pulled += remote_bytes_pulled.load();
  out.operator_ticks += operator_ticks.load();
  out.sched_local_enqueues += sched_local_enqueues.load();
  out.sched_injected_enqueues += sched_injected_enqueues.load();
  out.sched_steals += sched_steals.load();
  out.sched_failed_steals += sched_failed_steals.load();
  out.sched_local_steals += sched_local_steals.load();
  out.sched_remote_steals += sched_remote_steals.load();
  out.sched_parks += sched_parks.load();
  out.sched_wakeups += sched_wakeups.load();
  out.sched_hint_promotions += sched_hint_promotions.load();
  out.sched_cost_promotions += sched_cost_promotions.load();
  out.faults_raised += faults_raised.load();
  out.faults_injected += faults_injected.load();
  out.retries += retries.load();
  out.retries_exhausted += retries_exhausted.load();
  out.items_purged += items_purged.load();
  out.watchdog_fires += watchdog_fires.load();
  out.instances_admitted += instances_admitted.load();
  out.instances_completed += instances_completed.load();
  out.instances_faulted += instances_faulted.load();
  out.instances_budget_killed += instances_budget_killed.load();
  out.instances_shed += instances_shed.load();
}

// ---------------------------------------------------------------------------
// Shared run-driver helpers
// ---------------------------------------------------------------------------

int smallest_fault_index(const std::vector<FaultInfo>& faults) {
  if (faults.empty()) return -1;
  size_t best = 0;
  for (size_t i = 1; i < faults.size(); ++i) {
    if (fault_before(faults[i], faults[best])) best = i;
  }
  return static_cast<int>(best);
}

std::string build_deadlock_message(bool simulated, const std::string& stranded) {
  std::string out = simulated ? "simulated " : "";
  out +=
      "program finished without producing a result (a value was never "
      "delivered — dataflow deadlock)\nstranded activations:\n";
  out += stranded;
  return out;
}

std::string build_watchdog_message(const std::string& budget_text,
                                   const std::string& busy_section,
                                   const std::string& stranded,
                                   const std::string& instance_text) {
  // `instance_text` names the instance the watchdog fired for (manager
  // mode); empty in the single-run path, keeping that message
  // byte-identical to what it was before instances existed.
  return "watchdog: no result within " + budget_text + "; cancelling run" + instance_text +
         "\n" + busy_section + "stranded activations:\n" + stranded;
}

}  // namespace delirium
