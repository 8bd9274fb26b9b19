#include "src/baselines/fork_join.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace delirium::baselines {

void parallel_for(int tasks, int workers, const std::function<void(int)>& fn) {
  if (workers <= 1 || tasks <= 1) {
    for (int t = 0; t < tasks; ++t) fn(t);
    return;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  const int n = std::min(workers, tasks);
  threads.reserve(n);
  for (int w = 0; w < n; ++w) {
    threads.emplace_back([&] {
      for (;;) {
        const int t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks) return;
        fn(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

namespace {
/// A claim word is (generation << 32) | next task index.
constexpr uint64_t kIndexMask = 0xffffffffu;
uint64_t claim_tag(uint64_t generation) { return (generation & kIndexMask) << 32; }
}  // namespace

struct ForkJoinPool::State {
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  const std::function<void(int)>* fn = nullptr;  // guarded by mu
  int tasks = 0;                                  // guarded by mu
  /// The phase's task claims, tagged with its generation: a worker claims
  /// only while the tag matches the generation it observed under mu, so
  /// a straggler from one phase can never take a task of the next.
  std::atomic<uint64_t> claim{0};
  int remaining = 0;        // tasks not yet finished in this phase; guarded by mu
  uint64_t generation = 0;  // bumped per fork(); guarded by mu
  bool stop = false;
};

ForkJoinPool::ForkJoinPool(int workers) : state_(std::make_unique<State>()) {
  if (workers < 1) workers = 1;
  threads_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ForkJoinPool::worker_loop(int) {
  State& s = *state_;
  uint64_t seen_generation = 0;
  for (;;) {
    // Snapshot the phase under the lock; fork() rewrites fn and tasks
    // under it for the next phase.
    const std::function<void(int)>* fn = nullptr;
    uint64_t tasks = 0;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.work_cv.wait(lock, [&] { return s.stop || s.generation != seen_generation; });
      if (s.stop) return;
      seen_generation = s.generation;
      fn = s.fn;
      tasks = static_cast<uint64_t>(s.tasks);
    }
    const uint64_t tag = claim_tag(seen_generation);
    uint64_t c = s.claim.load(std::memory_order_acquire);
    for (;;) {
      // A claim of another phase, or past this phase's last task, ends
      // this worker's phase; fn may already be gone then.
      if ((c & ~kIndexMask) != tag || (c & kIndexMask) >= tasks) break;
      if (!s.claim.compare_exchange_weak(c, c + 1, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        continue;
      }
      (*fn)(static_cast<int>(c & kIndexMask));
      {
        std::lock_guard<std::mutex> lock(s.mu);
        if (--s.remaining == 0) s.done_cv.notify_all();
      }
      c = s.claim.load(std::memory_order_acquire);
    }
  }
}

void ForkJoinPool::fork(int tasks, const std::function<void(int)>& fn) {
  if (tasks <= 0) return;
  State& s = *state_;
  std::unique_lock<std::mutex> lock(s.mu);
  s.fn = &fn;
  s.tasks = tasks;
  s.remaining = tasks;
  ++s.generation;
  s.claim.store(claim_tag(s.generation), std::memory_order_release);
  s.work_cv.notify_all();
  s.done_cv.wait(lock, [&] { return s.remaining == 0; });
  s.fn = nullptr;
}

}  // namespace delirium::baselines
