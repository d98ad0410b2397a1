#include "lpvs/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace lpvs::common {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {

/// One parallel_for call, shared with its helper tasks.  A helper holds it
/// by shared_ptr, so one that starts after every index is done finds
/// nothing to claim, never touches `fn`, and the caller need not wait for
/// it.
struct ForkJoin {
  ForkJoin(std::size_t count,
           const std::function<void(std::size_t, std::size_t)>& fn)
      : count(count), fn(fn) {}

  /// Runs index `i`, already claimed, then claims and runs more until none
  /// are left, all as `runner`; the run that finishes the last index wakes
  /// the caller.
  void run_from(std::size_t i, std::size_t runner) {
    std::size_t ran = 0;
    for (; i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i, runner);
      ++ran;
    }
    if (ran > 0 &&
        done.fetch_add(ran, std::memory_order_acq_rel) + ran == count) {
      const std::lock_guard<std::mutex> lock(mutex);
      finished.notify_one();
    }
  }

  const std::size_t count;
  const std::function<void(std::size_t, std::size_t)>& fn;
  std::atomic<std::size_t> next{1};  ///< index 0 is the caller's
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable finished;
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for(pool, count, [&fn](std::size_t i, std::size_t) { fn(i); });
}

void parallel_for(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const auto join = std::make_shared<ForkJoin>(count, fn);
  const std::size_t helpers = std::min(pool.thread_count(), count - 1);
  for (std::size_t h = 1; h <= helpers; ++h) {
    pool.submit([join, h] {
      join->run_from(join->next.fetch_add(1, std::memory_order_relaxed), h);
    });
  }
  join->run_from(0, 0);
  std::unique_lock<std::mutex> lock(join->mutex);
  join->finished.wait(lock, [&] {
    return join->done.load(std::memory_order_acquire) == count;
  });
}

std::unique_ptr<ThreadPool> helper_pool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(threads - 1);
}

}  // namespace lpvs::common
