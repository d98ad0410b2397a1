// Tests for the streaming substrate: CDN catalog, LRU edge cache,
// prefetcher, chunk availability (Fig. 4) and edge capacity arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>

#include "lpvs/common/rng.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/streaming/streaming.hpp"

namespace lpvs::streaming {
namespace {

media::Video make_video(std::uint32_t id, int chunks,
                        double bitrate = 2.4) {
  media::ContentGenerator generator(id + 100);
  return generator.generate(common::VideoId{id}, media::Genre::kIrlChat,
                            chunks, bitrate);
}

TEST(Cdn, PublishAndFind) {
  CdnServer cdn;
  cdn.publish(make_video(1, 10));
  cdn.publish(make_video(2, 5));
  EXPECT_EQ(cdn.catalog_size(), 2u);
  ASSERT_NE(cdn.find(common::VideoId{1}), nullptr);
  EXPECT_EQ(cdn.find(common::VideoId{1})->chunks.size(), 10u);
  EXPECT_EQ(cdn.find(common::VideoId{99}), nullptr);
}

TEST(Cdn, RepublishReplaces) {
  CdnServer cdn;
  cdn.publish(make_video(1, 10));
  cdn.publish(make_video(1, 20));
  EXPECT_EQ(cdn.catalog_size(), 1u);
  EXPECT_EQ(cdn.find(common::VideoId{1})->chunks.size(), 20u);
}

TEST(Cdn, RetireDropsOnlyThatVideo) {
  CdnServer cdn;
  cdn.publish(make_video(1, 10));
  cdn.publish(make_video(2, 5));
  cdn.retire(common::VideoId{1});
  EXPECT_EQ(cdn.catalog_size(), 1u);
  EXPECT_EQ(cdn.find(common::VideoId{1}), nullptr);
  ASSERT_NE(cdn.find(common::VideoId{2}), nullptr);
  EXPECT_EQ(cdn.find(common::VideoId{2})->chunks.size(), 5u);
  cdn.retire(common::VideoId{99});  // unknown: no-op
  EXPECT_EQ(cdn.catalog_size(), 1u);
  cdn.publish(make_video(1, 3));  // a retired id can be published again
  ASSERT_NE(cdn.find(common::VideoId{1}), nullptr);
  EXPECT_EQ(cdn.find(common::VideoId{1})->chunks.size(), 3u);
}

TEST(Cdn, ChunkIdsListsAll) {
  CdnServer cdn;
  cdn.publish(make_video(3, 7));
  const auto ids = cdn.chunk_ids(common::VideoId{3});
  ASSERT_EQ(ids.size(), 7u);
  EXPECT_EQ(ids[0].value, 0u);
  EXPECT_EQ(ids[6].value, 6u);
  EXPECT_TRUE(cdn.chunk_ids(common::VideoId{99}).empty());
}

TEST(Cache, InsertAndContains) {
  EdgeCache cache(100.0);
  const media::Video video = make_video(1, 5);
  EXPECT_TRUE(cache.insert(video.id, video.chunks[0]).ok());
  EXPECT_TRUE(cache.contains(video.id, video.chunks[0].id));
  EXPECT_FALSE(cache.contains(video.id, video.chunks[1].id));
  EXPECT_GT(cache.used_mb(), 0.0);
}

TEST(Cache, CapacityNeverExceeded) {
  EdgeCache cache(10.0);
  const media::Video video = make_video(1, 50);  // 3 MB per chunk at 2.4 Mbps
  for (const auto& chunk : video.chunks) {
    cache.insert(video.id, chunk);
    EXPECT_LE(cache.used_mb(), cache.capacity_mb() + 1e-9);
  }
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(Cache, EvictsLeastRecentlyUsed) {
  // 2.4 Mbps x 10 s / 8 = 3 MB per chunk; capacity for exactly 3 chunks.
  EdgeCache cache(9.0);
  const media::Video video = make_video(1, 4);
  cache.insert(video.id, video.chunks[0]);
  cache.insert(video.id, video.chunks[1]);
  cache.insert(video.id, video.chunks[2]);
  // Refresh chunk 0, insert chunk 3: chunk 1 must be the victim.
  EXPECT_TRUE(cache.touch(video.id, video.chunks[0].id));
  cache.insert(video.id, video.chunks[3]);
  EXPECT_TRUE(cache.contains(video.id, video.chunks[0].id));
  EXPECT_FALSE(cache.contains(video.id, video.chunks[1].id));
  EXPECT_TRUE(cache.contains(video.id, video.chunks[3].id));
}

TEST(Cache, OversizedChunkRejected) {
  EdgeCache cache(0.5);
  const media::Video video = make_video(1, 1);
  const common::Status status = cache.insert(video.id, video.chunks[0]);
  EXPECT_EQ(status.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(Cache, ReinsertRefreshesWithoutDoubleCount) {
  EdgeCache cache(100.0);
  const media::Video video = make_video(1, 2);
  cache.insert(video.id, video.chunks[0]);
  const double used = cache.used_mb();
  cache.insert(video.id, video.chunks[0]);
  EXPECT_DOUBLE_EQ(cache.used_mb(), used);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(Cache, TouchMissReturnsFalse) {
  EdgeCache cache(10.0);
  EXPECT_FALSE(cache.touch(common::VideoId{1}, common::ChunkId{0}));
}

/// Reference LRU the cache must match step for step: a std::list with the
/// most recent entry in front, the same byte accounting in the same order.
class ReferenceLru {
 public:
  struct Entry {
    std::uint64_t key;
    double size_mb;
  };

  explicit ReferenceLru(double capacity_mb) : capacity_mb_(capacity_mb) {}

  bool insert(std::uint64_t key, double size_mb) {
    if (refresh(key)) return true;
    if (size_mb > capacity_mb_) return false;
    while (used_mb_ + size_mb > capacity_mb_) {
      used_mb_ -= lru_.back().size_mb;
      lru_.pop_back();
      ++evictions_;
    }
    lru_.push_front(Entry{key, size_mb});
    used_mb_ += size_mb;
    return true;
  }

  bool refresh(std::uint64_t key) {
    const auto it = find(key);
    if (it == lru_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it);
    return true;
  }

  bool contains(std::uint64_t key) const {
    return std::any_of(lru_.begin(), lru_.end(),
                       [key](const Entry& e) { return e.key == key; });
  }

  const std::list<Entry>& entries_in_order() const { return lru_; }

  double used_mb() const { return used_mb_; }
  std::size_t entries() const { return lru_.size(); }
  std::size_t evictions() const { return evictions_; }

 private:
  std::list<Entry>::iterator find(std::uint64_t key) {
    return std::find_if(lru_.begin(), lru_.end(),
                         [key](const Entry& e) { return e.key == key; });
  }

  double capacity_mb_;
  double used_mb_ = 0.0;
  std::size_t evictions_ = 0;
  std::list<Entry> lru_;
};

/// Seeded random insert/touch/contains sequences over a key pool larger
/// than the cache; after every operation the cache must agree with the
/// reference on the key's presence, the entry and eviction counts, and
/// the bits of used_mb() (same additions and subtractions, same order).
void check_against_reference(double capacity_mb, int videos,
                             std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity_mb);
  EdgeCache cache(capacity_mb);
  ReferenceLru reference(capacity_mb);
  common::Rng rng(seed);

  // Keys shaped like the emulator's: video = device * 100000 + slot.
  constexpr int kChunks = 64;
  const auto video_of = [](int v) {
    return common::VideoId{static_cast<std::uint32_t>(v * 100000 + 7)};
  };
  const auto key_of = [&](common::VideoId video, common::ChunkId chunk) {
    return (static_cast<std::uint64_t>(video.value) << 32) | chunk.value;
  };
  const double rates[] = {1.8, 2.5, 3.5, 5.0, 8.0};

  long rejects = 0;
  long refreshes = 0;
  for (int op = 0; op < 20000; ++op) {
    const int v = static_cast<int>(rng.uniform_int(0, videos - 1));
    const common::VideoId video = video_of(v);
    const common::ChunkId chunk{
        static_cast<std::uint32_t>(rng.uniform_int(0, kChunks - 1))};
    const std::uint64_t key = key_of(video, chunk);
    const double action = rng.uniform();
    if (action < 0.6) {
      media::VideoChunk c;
      c.id = chunk;
      // A chunk's size is a function of its key, except for the rare
      // oversize chunk that no cache of this capacity can hold.
      c.bitrate_mbps = rates[static_cast<std::size_t>(v) % std::size(rates)];
      c.duration = common::Seconds{2.0 + static_cast<double>(chunk.value % 5)};
      if (rng.bernoulli(0.01)) {
        c.duration = common::Seconds{1.5 * capacity_mb * 8.0 / c.bitrate_mbps};
      }
      const double size_mb = c.bitrate_mbps * c.duration.value / 8.0;
      if (reference.contains(key)) ++refreshes;
      const bool accepted = reference.insert(key, size_mb);
      const common::Status status = cache.insert(video, c);
      ASSERT_EQ(status.ok(), accepted) << "op " << op;
      if (!accepted) {
        ++rejects;
        EXPECT_EQ(status.code(), common::StatusCode::kResourceExhausted);
      }
    } else if (action < 0.8) {
      ASSERT_EQ(cache.touch(video, chunk), reference.refresh(key))
          << "op " << op;
    }
    ASSERT_EQ(cache.contains(video, chunk), reference.contains(key))
        << "op " << op;
    ASSERT_EQ(cache.entries(), reference.entries()) << "op " << op;
    ASSERT_EQ(cache.evictions(), reference.evictions()) << "op " << op;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cache.used_mb()),
              std::bit_cast<std::uint64_t>(reference.used_mb()))
        << "op " << op;
    if (op % 1000 == 999) {
      // Equal counts and every reference key cached: the same key set.
      for (const ReferenceLru::Entry& e : reference.entries_in_order()) {
        ASSERT_TRUE(cache.contains(
            common::VideoId{static_cast<std::uint32_t>(e.key >> 32)},
            common::ChunkId{static_cast<std::uint32_t>(e.key)}))
            << "op " << op;
      }
    }
  }
  EXPECT_GT(rejects, 0);
  EXPECT_GT(refreshes, 0);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(Cache, MatchesReferenceLruAtSmallCapacity) {
  check_against_reference(9.0, /*videos=*/48, 1);
}

TEST(Cache, MatchesReferenceLruAtMediumCapacity) {
  check_against_reference(64.0, /*videos=*/48, 2);
}

TEST(Cache, MatchesReferenceLruAtEmulatorCapacity) {
  // A pool several times the cache, so thousands of entries churn.
  check_against_reference(8192.0, /*videos=*/512, 3);
}

TEST(PrefetcherTest, PullsWindowFromCdn) {
  CdnServer cdn;
  cdn.publish(make_video(1, 30));
  EdgeCache cache(1024.0);
  const common::StatusOr<int> inserted =
      Prefetcher(10).prefetch(cdn, cache, common::VideoId{1}, 0);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted.value(), 10);
  EXPECT_TRUE(cache.contains(common::VideoId{1}, common::ChunkId{9}));
  EXPECT_FALSE(cache.contains(common::VideoId{1}, common::ChunkId{10}));
}

TEST(PrefetcherTest, WindowPastEndTruncates) {
  CdnServer cdn;
  cdn.publish(make_video(1, 5));
  EdgeCache cache(1024.0);
  EXPECT_EQ(Prefetcher(10).prefetch(cdn, cache, common::VideoId{1}, 3).value(),
            2);
}

TEST(PrefetcherTest, UnknownVideoNotFound) {
  CdnServer cdn;
  EdgeCache cache(1024.0);
  const common::StatusOr<int> result =
      Prefetcher(10).prefetch(cdn, cache, common::VideoId{9}, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kNotFound);
}

TEST(PrefetcherTest, AlreadyCachedNotCountedTwice) {
  CdnServer cdn;
  cdn.publish(make_video(1, 10));
  EdgeCache cache(1024.0);
  ASSERT_TRUE(Prefetcher(5).prefetch(cdn, cache, common::VideoId{1}, 0).ok());
  EXPECT_EQ(Prefetcher(8).prefetch(cdn, cache, common::VideoId{1}, 0).value(),
            3);
}

TEST(AvailableRequest, StopsAtFirstGap) {
  CdnServer cdn;
  const media::Video video = make_video(1, 10);
  cdn.publish(video);
  EdgeCache cache(1024.0);
  cache.insert(video.id, video.chunks[0]);
  cache.insert(video.id, video.chunks[1]);
  cache.insert(video.id, video.chunks[3]);  // gap at 2
  const ChunkRequest request =
      available_request(cdn, cache, video.id, 0, 10);
  EXPECT_EQ(request.chunk_count(), 2u);  // chunks 0, 1 only
  EXPECT_EQ(request.chunks[1].value, 1u);
}

TEST(AvailableRequest, RespectsStartAndLimit) {
  CdnServer cdn;
  const media::Video video = make_video(1, 10);
  cdn.publish(video);
  EdgeCache cache(1024.0);
  Prefetcher(10).prefetch(cdn, cache, video.id, 0);
  const ChunkRequest request =
      available_request(cdn, cache, video.id, 4, 3);
  EXPECT_EQ(request.chunk_count(), 3u);
  EXPECT_EQ(request.chunks[0].value, 4u);
  EXPECT_EQ(request.chunks[2].value, 6u);
}

TEST(AvailableRequest, UnknownVideoEmpty) {
  CdnServer cdn;
  EdgeCache cache(10.0);
  EXPECT_TRUE(available_request(cdn, cache, common::VideoId{5}, 0, 10)
                  .empty());
}

TEST(EdgeServerTest, DefaultCapacityServesHundredStreams) {
  // SVI-B: one AirFrame-class edge server transforms ~100 device streams;
  // at 0.45 compute units per 1080p30 stream that is 45 units.
  const EdgeServer server;
  EXPECT_DOUBLE_EQ(server.capacity().compute_units, 45.0);
  display::DisplaySpec ref{display::DisplayType::kLcd, 6.1, 1920, 1080,
                           500.0, 0.8};
  const double per_stream = server.compute_cost(ref, media::Video{});
  EXPECT_NEAR(server.capacity().compute_units / per_stream, 100.0, 1.0);
}

}  // namespace
}  // namespace lpvs::streaming
