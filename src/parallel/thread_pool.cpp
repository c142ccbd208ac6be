#include "te/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace te {

ThreadPool::ThreadPool(int num_threads) {
  TE_REQUIRE(num_threads >= 1, "pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_job_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.back());
      queue_.pop_back();
    }
    job();  // a parallel_for task: catches f's exceptions itself
  }
}

void ThreadPool::parallel_for(std::int64_t count,
                              const std::function<void(std::int64_t)>& f) {
  if (count <= 0) return;
  // Per-call state on the caller's stack: the tasks reference it, and the
  // caller does not return before the last task has released it (under
  // mutex_), so concurrent calls never see each other's indices or errors.
  struct Dispatch {
    std::atomic<std::int64_t> next{0};
    std::atomic<bool> failed{false};
    int tasks_left = 0;        ///< guarded by mutex_
    std::exception_ptr error;  ///< first exception; guarded by mutex_
  } d;
  const int tasks = static_cast<int>(
      std::min<std::int64_t>(count, static_cast<std::int64_t>(num_threads())));
  d.tasks_left = tasks;
  const auto task = [this, &d, &f, count] {
    std::exception_ptr error;
    try {
      for (std::int64_t i = d.next++; i < count && !d.failed; i = d.next++) {
        f(i);
      }
    } catch (...) {
      d.failed = true;
      error = std::current_exception();
    }
    std::lock_guard lock(mutex_);
    if (error && !d.error) d.error = error;
    if (--d.tasks_left == 0) cv_done_.notify_all();
  };
  {
    std::lock_guard lock(mutex_);
    for (int i = 0; i < tasks; ++i) queue_.emplace_back(task);
  }
  // Wake exactly as many workers as there are tasks; a full broadcast is
  // only worth it when every worker has one.
  if (tasks >= num_threads()) {
    cv_job_.notify_all();
  } else {
    for (int i = 0; i < tasks; ++i) cv_job_.notify_one();
  }
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [&d] { return d.tasks_left == 0; });
  if (d.error) std::rethrow_exception(d.error);
}

}  // namespace te
