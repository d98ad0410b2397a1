// Unit tests for the lock-free rings and the object pool that carry the
// daemon's cross-thread handoff and hot-path recycling.  Covers index
// wraparound, full-ring backpressure, cross-thread streaming (SPSC) and
// contended production (MPSC), and leak-free pool recycling (the whole
// suite runs under ASan in CI, so "no leak" is enforced, not hoped).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lpvs/common/pool.hpp"
#include "lpvs/common/ring.hpp"

namespace lpvs::common {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, PushPopRoundTrip) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.try_push(7));
  EXPECT_FALSE(ring.empty());
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full: backpressure, not overwrite
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(99));  // one slot freed, one push admitted
  EXPECT_FALSE(ring.try_push(100));
}

TEST(SpscRing, IndicesWrapAroundManyLaps) {
  // 10k items through a 4-slot ring: every index wraps thousands of times
  // and FIFO order must survive every lap.
  SpscRing<std::uint32_t> ring(4);
  std::uint32_t next_in = 0;
  std::uint32_t next_out = 0;
  while (next_out < 10000) {
    while (next_in < 10000 && ring.try_push(std::uint32_t(next_in))) ++next_in;
    std::uint32_t out = 0;
    while (ring.try_pop(out)) {
      ASSERT_EQ(out, next_out);
      ++next_out;
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, CrossThreadStreamPreservesOrder) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount;) {
      if (ring.try_push(std::uint64_t(i))) ++i;
    }
  });
  std::uint64_t expected = 0;
  while (expected < kCount) {
    std::uint64_t out = 0;
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, MoveOnlyPayloads) {
  SpscRing<std::unique_ptr<std::string>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<std::string>("hello")));
  std::unique_ptr<std::string> out;
  EXPECT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, "hello");
}

TEST(MpscRing, PushPopRoundTripAndFull) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(MpscRing, CapacityRoundsUpAndZeroStillHoldsTwo) {
  EXPECT_EQ(MpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  MpscRing<int> ring(0);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
}

TEST(MpscRing, WraparoundKeepsFifoPerLap) {
  MpscRing<int> ring(2);
  for (int lap = 0; lap < 5000; ++lap) {
    ASSERT_TRUE(ring.try_push(2 * lap));
    ASSERT_TRUE(ring.try_push(2 * lap + 1));
    ASSERT_FALSE(ring.try_push(-1));
    int a = 0;
    int b = 0;
    ASSERT_TRUE(ring.try_pop(a));
    ASSERT_TRUE(ring.try_pop(b));
    ASSERT_EQ(a, 2 * lap);
    ASSERT_EQ(b, 2 * lap + 1);
  }
}

TEST(MpscRing, ContendedProducersLoseNothing) {
  // 4 producers x 20k items into one consumer; every item arrives exactly
  // once.  Values are tagged with their producer so duplicates would show.
  MpscRing<std::uint64_t> ring(128);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer;) {
        const std::uint64_t tagged =
            (static_cast<std::uint64_t>(p) << 32) | i;
        if (ring.try_push(std::uint64_t(tagged))) ++i;
      }
    });
  }

  std::vector<std::uint64_t> next_from(kProducers, 0);
  std::uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t out = 0;
    if (!ring.try_pop(out)) continue;
    const auto producer = static_cast<int>(out >> 32);
    const std::uint64_t seq = out & 0xFFFFFFFFu;
    ASSERT_LT(producer, kProducers);
    // Per-producer FIFO: a producer's items arrive in its push order.
    ASSERT_EQ(seq, next_from[producer]);
    ++next_from[producer];
    ++received;
  }
  for (std::thread& t : producers) t.join();
}

// A pooled object with buffer capacity worth preserving.
struct Scratch {
  std::vector<std::uint8_t> buffer;
  int generation = 0;

  void reset() {
    buffer.clear();  // keeps capacity — the point of pooling
    ++generation;
  }
};

TEST(ObjectPool, RecyclesInsteadOfAllocating) {
  ObjectPool<Scratch> pool;
  Scratch* first = pool.acquire();
  first->buffer.assign(4096, 0xAB);
  const std::uint8_t* data_before = first->buffer.data();
  pool.release(first);
  EXPECT_EQ(pool.outstanding(), 0u);

  Scratch* second = pool.acquire();
  EXPECT_EQ(second, first);  // recycled, not reallocated
  EXPECT_TRUE(second->buffer.empty());
  EXPECT_GE(second->buffer.capacity(), 4096u);  // capacity survived reset
  EXPECT_EQ(second->buffer.data(), data_before);
  EXPECT_EQ(second->generation, 1);
  EXPECT_EQ(pool.size(), 1u);
  pool.release(second);
}

TEST(ObjectPool, GrowsUnderDemandAndTracksOutstanding) {
  ObjectPool<Scratch> pool;
  std::vector<Scratch*> held;
  for (int i = 0; i < 16; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.size(), 16u);
  EXPECT_EQ(pool.outstanding(), 16u);
  std::set<Scratch*> distinct(held.begin(), held.end());
  EXPECT_EQ(distinct.size(), 16u);
  for (Scratch* s : held) pool.release(s);
  EXPECT_EQ(pool.outstanding(), 0u);
  // Churn after release stays within the existing 16 objects.
  for (int round = 0; round < 100; ++round) {
    Scratch* s = pool.acquire();
    s->buffer.push_back(1);
    pool.release(s);
  }
  EXPECT_EQ(pool.size(), 16u);
}

TEST(ObjectPool, DestructionWithCheckedOutObjectsLeaksNothing) {
  // The daemon force-closes connections on stop() without returning each to
  // the pool; the pool must still destroy everything exactly once.  ASan
  // (the CI sanitizer lane) turns any double-free or leak into a failure.
  ObjectPool<Scratch> pool;
  Scratch* a = pool.acquire();
  Scratch* b = pool.acquire();
  a->buffer.assign(1024, 1);
  b->buffer.assign(2048, 2);
  pool.release(b);
  EXPECT_EQ(pool.outstanding(), 1u);
  // `a` intentionally not released: pool destructor owns it regardless.
}

}  // namespace
}  // namespace lpvs::common
