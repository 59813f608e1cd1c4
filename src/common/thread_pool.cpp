#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/error.h"

namespace mcs {

int resolve_threads(int requested) {
  MCS_CHECK(requested >= 0, "thread count must be >= 0");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_threads(threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  has_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MCS_CHECK(task != nullptr, "cannot submit an empty task");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    MCS_CHECK(!stop_, "submit on a stopped pool");
    queue_.push_back(std::move(task));
  }
  has_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return pending() == 0 && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      has_work_.wait(lock, [this] { return stop_ || pending() != 0; });
      if (pending() == 0) return;  // stop requested and queue drained
      task = std::move(queue_[head_++]);
      if (head_ == queue_.size()) {
        // Drained: rewind so the next batch reuses the same slots. Every
        // caller in this codebase submits a batch and waits for it, so the
        // consumed prefix never outgrows one batch.
        queue_.clear();
        head_ = 0;
      }
      ++active_;
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (pending() == 0 && active_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for_each(int threads, std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  const auto resolved = static_cast<std::size_t>(resolve_threads(threads));
  const std::size_t workers = std::min(resolved, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;

  // Each worker drains the shared index counter; on the first exception the
  // others stop claiming new indices (in-flight ones still finish).
  const auto drain = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (first_error == nullptr) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  {
    ThreadPool pool(static_cast<int>(workers));
    for (std::size_t w = 0; w < workers; ++w) pool.submit(drain);
    pool.wait_idle();
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void parallel_ranges_impl(
    ThreadPool* pool, int workers, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  // The parallel_ranges template front-end already took the serial exits
  // (n == 0, null pool, workers <= 1, n == 1) without type-erasing fn.
  const std::size_t w = std::min(static_cast<std::size_t>(workers), n);
  if (w <= 1) {
    fn(0, 0, n);
    return;
  }

  // The ranges share one frame, so each submitted closure is a pointer and
  // an index: small enough for std::function's inline storage, which keeps
  // a steady-state fan-out off the heap.
  struct Shared {
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn;
    std::size_t n;
    std::size_t w;
    std::mutex error_mu;
    std::exception_ptr first_error;
  } shared{fn, n, w, {}, nullptr};
  for (std::size_t s = 0; s < w; ++s) {
    pool->submit([sh = &shared, s] {
      try {
        sh->fn(s, s * sh->n / sh->w, (s + 1) * sh->n / sh->w);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(sh->error_mu);
        if (sh->first_error == nullptr) {
          sh->first_error = std::current_exception();
        }
      }
    });
  }
  pool->wait_idle();
  if (shared.first_error != nullptr) std::rethrow_exception(shared.first_error);
}

}  // namespace mcs
