// Minimal fixed-size thread pool used to parallelize embarrassingly
// parallel experiment sweeps (per-cluster replays, per-seed repetitions).
// Determinism note: callers must make each task's result independent of
// execution order (every LPVS experiment derives its randomness from
// explicit per-task seeds), so parallel and serial runs are bit-identical.
//
// parallel_for is a fork-join on the calling thread: the caller claims and
// runs indices alongside the pool's workers.  So a pool that serves
// parallel_for for `threads` total threads holds threads - 1 workers;
// helper_pool() builds it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lpvs::common {

class ThreadPool {
 public:
  /// `threads` == 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Tasks submitted and not yet finished.
  std::size_t pending() const;

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs fn(i) once for each i in [0, count) and returns when all are done.
/// The caller runs index 0 and then claims indices from one shared counter
/// alongside min(workers, count - 1) helper tasks, so count <= 1 submits
/// nothing.  It waits only for indices, not for the pool: a helper that
/// starts after the last index finishes claims nothing and exits.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// The same, calling fn(i, runner): `runner` is 0 on the caller and h on
/// the h-th helper task (1-based), so it lies in [0, pool.thread_count()]
/// and no two threads of one call share it.  A caller can give each
/// runner its own scratch and size it by threads, not by count.
void parallel_for(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// The worker pool for parallel_for at `threads` total threads, the caller
/// included (0 = hardware concurrency): threads - 1 workers, or null when
/// that leaves none and the caller runs everything alone.
std::unique_ptr<ThreadPool> helper_pool(unsigned threads);

}  // namespace lpvs::common
