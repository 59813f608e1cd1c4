// A small fixed-size worker pool plus a deterministic-friendly
// parallel_for_each.
//
// The experiment harness runs many fully independent repetitions (each a
// pure function of its seed); parallel_for_each fans such index spaces out
// across workers while the caller keeps results order-independent by
// writing into per-index slots and merging on its own thread afterwards —
// that discipline is what keeps parallel aggregates bit-identical to the
// serial run regardless of thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcs {

/// Resolve a requested worker count: 0 means one worker per hardware
/// thread (at least 1 when the runtime cannot tell), n >= 1 means exactly
/// n. Negative requests are an error.
int resolve_threads(int requested);

/// Fixed-size pool of worker threads draining a FIFO task queue. Tasks must
/// not throw (wrap work that can fail and capture the error yourself;
/// parallel_for_each below does exactly that). Destruction drains the queue
/// and joins the workers. The queue reuses its slots once drained, so
/// submitting a closure that fits std::function's inline storage (a pointer
/// and an index) allocates nothing after the first batch of that size.
class ThreadPool {
 public:
  /// `threads` follows resolve_threads(): 0 = hardware concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Thread-safe.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished and the queue is empty.
  void wait_idle();

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();
  std::size_t pending() const { return queue_.size() - head_; }

  std::vector<std::thread> workers_;
  // FIFO: queue_[head_..] are waiting, the prefix is consumed.
  std::vector<std::function<void()>> queue_;
  std::size_t head_ = 0;
  std::mutex mu_;
  std::condition_variable has_work_;
  std::condition_variable idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Run fn(0) .. fn(n-1), concurrently on up to `threads` workers
/// (resolve_threads() semantics; threads = 1 or n <= 1 runs inline on the
/// calling thread without spawning anything — the serial path). Blocks until
/// every index finished. Indices are claimed dynamically, so execution order
/// is unspecified: callers needing deterministic output must write results
/// into per-index slots and combine them after this returns. If fn throws,
/// remaining unclaimed indices are abandoned and the first exception is
/// rethrown on the calling thread.
void parallel_for_each(int threads, std::size_t n,
                       const std::function<void(std::size_t)>& fn);

/// Fan fn(range, lo, hi) out over `pool`, splitting [0, n) into
/// min(workers, n) contiguous ranges at the s*n/w boundaries every sharded
/// phase in this codebase standardizes on. Runs inline as one range
/// (fn(0, 0, n)) when pool is null, workers <= 1 or n <= 1 — the serial
/// path. Blocks until every range finished; the first exception fn threw is
/// rethrown on the calling thread afterwards.
///
/// Determinism discipline: ranges are disjoint, so callers writing results
/// into per-index slots get bit-identical output at any worker count;
/// reductions store one partial per `range` slot and fold the slots
/// serially after this returns (see DemandIndicator's Nmax reduction).
/// `range` is always < min(workers, n) — but note the serial path delivers
/// everything as range 0, so per-range slots must be initialized to the
/// reduction's identity, not assumed all-written.
///
/// A template so the serial path invokes the callable directly: the
/// steady-state repricing sweeps run through here every round and must not
/// allocate (tier-1 gates allocs_per_iter=0), and wrapping a capturing
/// lambda in std::function heap-allocates. Only the fan-out path (which
/// allocates per-task queue nodes anyway) pays for the type erasure.
void parallel_ranges_impl(
    ThreadPool* pool, int workers, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

template <typename Fn>
void parallel_ranges(ThreadPool* pool, int workers, std::size_t n, Fn&& fn) {
  if (n == 0) {
    return;
  }
  if (pool == nullptr || workers <= 1 || n == 1) {
    fn(static_cast<std::size_t>(0), static_cast<std::size_t>(0), n);
    return;
  }
  parallel_ranges_impl(pool, workers, n, std::function<void(
      std::size_t, std::size_t, std::size_t)>(std::forward<Fn>(fn)));
}

}  // namespace mcs
