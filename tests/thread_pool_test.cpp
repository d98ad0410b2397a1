// Tests for the thread pool: completion guarantees, reuse across waves,
// parallel_for coverage, and determinism of seed-driven parallel work.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/common/thread_pool.hpp"

namespace lpvs::common {
namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, DestructionDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    // No wait_idle: the destructor must still let queued tasks finish.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

/// Occupies every worker of `pool` until release(): a task submitted
/// meanwhile stays pending, and a parallel_for that waited for one would
/// never return.
class WorkerGate {
 public:
  explicit WorkerGate(ThreadPool& pool) : pool_(pool) {
    for (std::size_t w = 0; w < pool.thread_count(); ++w) {
      pool.submit([this] {
        while (!open_.load()) std::this_thread::yield();
      });
    }
  }
  ~WorkerGate() { release(); }
  void release() {
    open_.store(true);
    pool_.wait_idle();
  }

 private:
  ThreadPool& pool_;
  std::atomic<bool> open_{false};
};

TEST(ParallelFor, CountZeroRunsAndSubmitsNothing) {
  ThreadPool pool(2);
  WorkerGate gate(pool);
  int calls = 0;
  parallel_for(pool, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(pool.pending(), pool.thread_count());  // just the gate's tasks
}

TEST(ParallelFor, CountOneRunsOnTheCaller) {
  ThreadPool pool(2);
  WorkerGate gate(pool);
  std::thread::id ran_on;
  std::size_t index = 99;
  parallel_for(pool, 1, [&](std::size_t i) {
    ran_on = std::this_thread::get_id();
    index = i;
  });
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.pending(), pool.thread_count());  // just the gate's tasks
}

TEST(ParallelFor, CallerFinishesWithoutWaitingForBusyWorkers) {
  // Every worker is busy, so the helpers stay queued: the caller runs all
  // the indices itself and returns; the helpers later find nothing left.
  ThreadPool pool(2);
  WorkerGate gate(pool);
  std::vector<int> hits(5, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, std::vector<int>(5, 1));
  EXPECT_EQ(pool.pending(), 2 * pool.thread_count());  // gate + helpers
  gate.release();
  EXPECT_EQ(hits, std::vector<int>(5, 1));
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ParallelFor, CallerAndWorkersRunEachIndexOnce) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::atomic<int>> hits(1000);
    std::atomic<int> on_caller{0};
    parallel_for(pool, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "wave " << wave << " index " << i;
    }
    EXPECT_GE(on_caller.load(), 1) << "wave " << wave;
  }
}

TEST(ParallelFor, EachRunnerIdIsOneThreadAtATime) {
  // Callers keep one scratch per runner id, so an id must never be in use
  // on two threads at once: the caller is runner 0, the helpers 1..workers.
  ThreadPool pool(3);
  const std::size_t helpers = pool.thread_count();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<bool>> in_use(helpers + 1);
  std::atomic<int> out_of_range{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> caller_mismatches{0};
  std::atomic<int> helper_runs{0};
  for (int wave = 0; wave < 20; ++wave) {
    parallel_for(pool, 64, [&](std::size_t, std::size_t runner) {
      if (runner > helpers) {
        out_of_range.fetch_add(1);
        return;
      }
      if (in_use[runner].exchange(true)) overlaps.fetch_add(1);
      if ((runner == 0) != (std::this_thread::get_id() == caller)) {
        caller_mismatches.fetch_add(1);
      }
      if (runner != 0) helper_runs.fetch_add(1);
      // Hold the id long enough for the other runners to overlap.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      in_use[runner].store(false);
    });
  }
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(caller_mismatches.load(), 0);
  EXPECT_GT(helper_runs.load(), 0);
}

TEST(HelperPool, LeavesOneThreadToTheCaller) {
  EXPECT_EQ(helper_pool(1), nullptr);
  const std::unique_ptr<ThreadPool> pool = helper_pool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->thread_count(), 2u);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const std::unique_ptr<ThreadPool> all = helper_pool(0);
  EXPECT_EQ(all == nullptr ? 0u : all->thread_count(), hardware - 1);
}

TEST(ParallelFor, SeedDrivenWorkDeterministicAcrossThreadCounts) {
  // The project-wide pattern: every task derives results only from its
  // index-based seed, so parallel results equal serial results exactly.
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<double> results(64);
    parallel_for(pool, results.size(), [&](std::size_t i) {
      Rng rng(1000 + i);
      double total = 0.0;
      for (int k = 0; k < 100; ++k) total += rng.uniform();
      results[i] = total;
    });
    return results;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(4), run(8));
}

}  // namespace
}  // namespace lpvs::common
