#include "common/thread_pool.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/env.hpp"

namespace planaria::common {

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads) {
  if (threads == 0) {
    throw std::invalid_argument("thread pool: thread count must be >= 1");
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::drain_batch(const std::shared_ptr<ForBatch>& batch) {
  for (;;) {
    const std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) return;
    try {
      (*batch->body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch->mutex);
      if (!batch->error) batch->error = std::current_exception();
    }
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch->n) {
      // Last index out: wake the owner, which may already be waiting.
      std::lock_guard<std::mutex> lock(batch->mutex);
      batch->cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<ForBatch>();
  batch->n = n;
  batch->body = &body;  // caller blocks until done == n, so body outlives use

  // One helper per worker lane that could usefully claim an index; late
  // helpers see next >= n and fall through without touching `body`.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([batch] { drain_batch(batch); });
  }

  drain_batch(batch);
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
    if (batch->error) std::rethrow_exception(batch->error);
  }
}

std::size_t ThreadPool::threads_from_env(std::size_t fallback) {
  return static_cast<std::size_t>(
      parse_env_uint("PLANARIA_THREADS", std::getenv("PLANARIA_THREADS"), 1,
                     kMaxThreads)
          .value_or(fallback));
}

}  // namespace planaria::common
