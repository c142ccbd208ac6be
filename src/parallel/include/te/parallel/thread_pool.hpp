#pragma once
// A small fixed-size thread pool with a blocking parallel_for.
//
// The CPU batch backend parallelizes over independent tensors as the paper
// does with `omp parallel for` (Section V-E), but it does not hand each
// worker a fixed contiguous share. SS-HOPM's iteration count varies from
// start to start and tensor to tensor (Kolda & Mayo), so equal index counts
// are not equal work, and a fixed share leaves the fast workers waiting on
// the slowest. Instead parallel_for enqueues one task per worker, and every
// task claims the next index from a shared atomic counter until the range
// is exhausted: the dynamic schedule, at the cost of one relaxed
// fetch_add per index.
//
// The pool is also usable with more workers than hardware threads -- the
// functional results are identical, which is what the tests rely on when
// checking that the parallel backend is bit-compatible with the sequential
// one regardless of the host's core count.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "te/util/assert.hpp"

namespace te {

/// Fixed pool of worker threads executing submitted jobs.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; outstanding jobs complete first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Run f(i) for every i in [0, count) exactly once and block until all
  /// have finished. One task per worker (at most `count`) is enqueued under
  /// a single lock with one wakeup; each task then claims indices from a
  /// shared counter, so a worker that draws cheap indices simply claims
  /// more. An empty range returns at once without touching the pool. The
  /// first exception thrown by f propagates to the caller, the indices not
  /// yet claimed are skipped, and the pool stays usable. Several threads
  /// may call parallel_for on one pool at once; each call waits for its
  /// own indices only.
  void parallel_for(std::int64_t count,
                    const std::function<void(std::int64_t)>& f);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  std::vector<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace te
