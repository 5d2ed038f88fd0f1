// Fixed-size thread pool shared by the sweep engine and the channel-sharded
// simulator.
//
// Two usage shapes:
//   * submit(fn)          — fire-and-collect a single task via std::future.
//   * parallel_for(n, fn) — run fn(0..n-1) across the pool. The CALLING
//     thread participates in the batch: it claims indices from the same
//     atomic cursor as the workers, so a nested parallel_for issued from
//     inside a pool task can never deadlock — the caller drains its own
//     batch even when every worker is busy with outer-level tasks. Helper
//     jobs that reach the queue after the batch is fully claimed simply
//     return.
//
// Thread count comes from PLANARIA_THREADS (see threads_from_env, parsed by
// common::parse_env_uint like every integer knob); a pool of size 1
// degenerates to inline execution with no worker handoff.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace planaria::common {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining lane). A pool
  /// of 1 runs everything inline. Throws std::invalid_argument on 0.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (worker threads + the participating caller).
  std::size_t size() const { return threads_; }

  /// Queues one task; the future reports its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> out = task->get_future();
    enqueue([task] { (*task)(); });
    return out;
  }

  /// Runs body(0..n-1) with the caller participating; blocks until every
  /// index has finished. The first exception thrown by any index is
  /// rethrown on the calling thread after the batch drains. Safe to call
  /// from inside a pool task (see header comment). n == 0 is a no-op.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Reads PLANARIA_THREADS (decimal, e.g. "8") or returns `fallback`.
  /// Throws std::invalid_argument on zero, malformed values, and counts
  /// above kMaxThreads.
  static std::size_t threads_from_env(std::size_t fallback);

  /// Upper bound accepted from the environment; far above any real machine
  /// this simulator targets.
  static constexpr std::size_t kMaxThreads = 4096;

 private:
  struct ForBatch {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  ///< first failure, guarded by mutex
  };

  void enqueue(std::function<void()> job);
  void worker_loop();
  static void drain_batch(const std::shared_ptr<ForBatch>& batch);

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(0..n-1) on `pool` when it has more than one lane and there is
/// more than one index, serially in index order otherwise. The one
/// pool-or-serial dispatch: registered as a parallel-api in
/// tools/lint/layers.conf, so the race-* family scans lambdas passed here
/// even at call sites that only ever see the serial fallback.
template <typename Fn>
void for_each_ready(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (pool != nullptr && pool->size() > 1 && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace planaria::common
