// Exact heap-allocation counts of the per-activation runtime path.
//
// This binary replaces the global operator new with a counting one, so
// it sees every heap allocation the runtime makes, including the ones
// the activation pool does not serve. At one worker and on the
// simulator the count is identical from run to run, which makes it a
// performance signal that host load cannot blur: each allocation
// removed from the node path shows up here exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "tests/test_util.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// The unaligned and aligned forms are replaced; libstdc++'s array and
// nothrow forms forward to them.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace delirium {
namespace {

// fib(20) spawns 21,891 fib activations, one arm activation per call and
// main: 43,783 in all. The pool serves every activation's own storage;
// what remains per activation is the call's parameter vector and the
// closure of each conditional arm, 2.5 heap allocations.
constexpr double kMaxAllocsPerActivation = 2.6;

const char* kFib =
    "fib(n) if less_than(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    "main() fib(20)\n";

/// Every knob that changes the compiled graph or the run's path, so CI
/// jobs that export one suite-wide do not move the count.
testing::ScopedEnv hermetic_env() {
  return testing::ScopedEnv(
      {"DELIRIUM_INJECT_FAULTS", "DELIRIUM_RETRIES", "DELIRIUM_TRACE",
       "DELIRIUM_TRACE_CAPACITY", "DELIRIUM_COST_HINTS", "DELIRIUM_AFFINITY",
       "DELIRIUM_TOPOLOGY", "DELIRIUM_LOCALITY", "DELIRIUM_GRAPH_FACTS",
       "DELIRIUM_SCHED_HINTS", "DELIRIUM_FACTS_DEADPARAM", "DELIRIUM_FACTS_FOLD",
       "DELIRIUM_FACTS_FUSE", "DELIRIUM_FACTS_SOLE", "DELIRIUM_FACTS_STRAND",
       "DELIRIUM_FACTS_TUPLES"});
}

CompiledProgram unoptimized_fib(const OperatorRegistry& reg) {
  CompileOptions opts;
  opts.optimize = false;
  return compile_or_throw(kFib, reg, opts);
}

/// Heap allocations made by `run` (the second of two calls, so one-time
/// growth such as the pool's arena is paid by the warm-up).
template <class Run>
uint64_t counted_second_run(Run run) {
  run();
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  run();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

void expect_per_activation(const char* machine, uint64_t allocs, uint64_t acts) {
  EXPECT_EQ(acts, 43783u);
  const double per_act = static_cast<double>(allocs) / static_cast<double>(acts);
  EXPECT_LE(per_act, kMaxAllocsPerActivation);
  std::printf("%s: %llu heap allocations for %llu activations, %.3f per activation\n",
              machine, static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(acts), per_act);
}

TEST(HeapAllocs, ThreadedOneWorkerFib20PerActivation) {
  auto env = hermetic_env();
  auto reg = testing::builtin_registry();
  const CompiledProgram program = unoptimized_fib(*reg);
  RuntimeConfig config;
  config.num_workers = 1;
  Runtime rt(*reg, config);
  const uint64_t allocs =
      counted_second_run([&] { EXPECT_EQ(rt.run(program).as_int(), 6765); });
  expect_per_activation("threaded, 1 worker", allocs, rt.last_stats().activations_created);
}

TEST(HeapAllocs, SimRuntimeFib20PerActivation) {
  auto env = hermetic_env();
  auto reg = testing::builtin_registry();
  const CompiledProgram program = unoptimized_fib(*reg);
  SimRuntime sim(*reg, SimConfig{});
  const uint64_t allocs =
      counted_second_run([&] { EXPECT_EQ(sim.run(program).result.as_int(), 6765); });
  expect_per_activation("simulator", allocs, sim.last_stats().activations_created);
}

}  // namespace
}  // namespace delirium
