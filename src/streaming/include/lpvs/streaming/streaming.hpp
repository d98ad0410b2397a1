// Streaming substrate (SIV-A, SIV-D): CDN catalog, edge chunk cache with
// prefetch, chunk availability per user request, and edge-server transform
// capacity.
//
// The paper's architecture: CDN servers at the PoP hold full videos; an
// edge server co-located with the base station prefetches chunks according
// to a caching strategy (which "provides underlying support for and is
// independent of LPVS"); mobile devices in the base station's coverage form
// a virtual cluster (VC) that shares the edge server.  At a scheduling
// point only the chunks already at the edge count as available for power
// estimation — user 2/3 in Fig. 4 have partial windows.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lpvs/common/status.hpp"
#include "lpvs/common/units.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fault/retry.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::streaming {

/// The paper's d_n(t) = <VID, CID_1, ..., CID_Km>: what device n will play
/// during slot t, restricted to the chunks available at the edge.
struct ChunkRequest {
  common::VideoId video;
  std::vector<common::ChunkId> chunks;

  bool empty() const { return chunks.empty(); }
  std::size_t chunk_count() const { return chunks.size(); }
};

/// CDN Point-of-Presence: authoritative store of whole videos.
class CdnServer {
 public:
  /// Stores (or replaces) a video; returns the stored copy, stable until
  /// the video is retired or re-published.
  const media::Video& publish(media::Video video);

  /// Drops a video from the catalog (a no-op when it is not there).  A
  /// publisher that replaces its videos every slot retires the old ones so
  /// the catalog stays one slot deep.
  void retire(common::VideoId id);

  const media::Video* find(common::VideoId id) const;
  std::size_t catalog_size() const { return catalog_.size(); }

  /// All chunk ids of a video (what a cache may prefetch).
  std::vector<common::ChunkId> chunk_ids(common::VideoId id) const;

 private:
  std::unordered_map<std::uint32_t, media::Video> catalog_;
};

/// Byte-budgeted LRU chunk cache at the edge.
///
/// Entries live in a slab of nodes threaded on an intrusive recency list
/// (prev/next slab indices) with a free list, and an open-addressed index
/// (linear probing, backward-shift deletion) maps each key to its node.
/// Once the slab and the index have grown to the working set, inserts,
/// touches and evictions allocate nothing.
class EdgeCache {
 public:
  explicit EdgeCache(double capacity_mb);

  /// Inserts a chunk (evicting LRU entries if needed).  Returns
  /// kResourceExhausted when the chunk alone exceeds the whole cache; a
  /// re-insert of a cached chunk is OK and only refreshes recency.
  common::Status insert(common::VideoId video, const media::VideoChunk& chunk);

  bool contains(common::VideoId video, common::ChunkId chunk) const;

  /// Marks a hit (refreshes recency); returns whether it was present.
  bool touch(common::VideoId video, common::ChunkId chunk);

  double used_mb() const { return used_mb_; }
  double capacity_mb() const { return capacity_mb_; }
  std::size_t entries() const { return entries_; }
  std::size_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Node {
    std::uint64_t key;
    double size_mb;
    std::uint32_t prev;  ///< toward the most recent end
    std::uint32_t next;  ///< toward the least recent end; free-list link
  };
  /// One index bucket; node == kNil marks it empty.
  struct Bucket {
    std::uint64_t key;
    std::uint32_t node;
  };

  static std::uint64_t make_key(common::VideoId video, common::ChunkId chunk) {
    return (static_cast<std::uint64_t>(video.value) << 32) | chunk.value;
  }
  std::size_t home(std::uint64_t key) const;
  /// Bucket holding `key`, or the empty bucket where it would go.
  std::size_t probe(std::uint64_t key) const;
  void index_erase(std::size_t bucket);
  void grow_index();
  void unlink(std::uint32_t node);
  void link_front(std::uint32_t node);
  void evict_one();

  double capacity_mb_;
  double used_mb_ = 0.0;
  std::size_t evictions_ = 0;
  std::size_t entries_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;
  std::uint32_t head_ = kNil;  ///< most recent
  std::uint32_t tail_ = kNil;  ///< least recent
  std::vector<Bucket> index_;  ///< power-of-two size, at most half full
  int index_shift_ = 64;       ///< 64 - log2(index_.size())
};

/// Simple look-ahead prefetcher: pulls the next `window` chunks of every
/// video that has active viewers into the edge cache (the "content delivery
/// strategy between the edge servers and the CDN servers" of SIV-A).
class Prefetcher {
 public:
  explicit Prefetcher(int window = 30, fault::BackoffPolicy backoff = {})
      : window_(window), backoff_(backoff) {}

  /// Prefetches up to `window_` chunks of `video` starting at
  /// `next_chunk_index` from the CDN into the cache; returns how many
  /// chunks were newly inserted, or kNotFound when the CDN does not carry
  /// the video.
  ///
  /// With an active injector, each CDN-to-edge chunk delivery is subject
  /// to kChunkDelivery faults and retried under the backoff policy
  /// (backoff accounted, not slept).  A chunk whose retry budget runs out
  /// is simply not cached this round — available_request() then truncates
  /// the device's window at the gap, which is the paper's partial-
  /// availability path (Fig. 4), and the next slot's prefetch tries again.
  /// Decisions are keyed on (fault_key, video, chunk, attempt), so replays
  /// drop identical chunks.
  common::StatusOr<int> prefetch(const CdnServer& cdn, EdgeCache& cache,
                                 common::VideoId video,
                                 std::size_t next_chunk_index,
                                 const fault::FaultInjector* faults = nullptr,
                                 std::uint64_t fault_key = 0) const;

  int window() const { return window_; }
  const fault::BackoffPolicy& backoff() const { return backoff_; }

 private:
  int window_;
  fault::BackoffPolicy backoff_;
};

/// Builds device n's slot request from what is actually cached: the video's
/// next chunks starting at `next_chunk_index`, truncated at the first gap
/// (playback cannot skip a missing chunk).
ChunkRequest available_request(const CdnServer& cdn, const EdgeCache& cache,
                               common::VideoId video,
                               std::size_t next_chunk_index,
                               std::size_t max_chunks);

/// Edge server transform capacity (SIV-D): extra compute units C and
/// staging storage S available for video transforming, with the admission
/// arithmetic of constraints (6) and (7).
class EdgeServer {
 public:
  struct Capacity {
    /// One unit = one real-time 1080p30 transform stream; the Nokia
    /// AirFrame-class box handles ~100 concurrent device streams (SVI-B),
    /// i.e. ~45 units under transform::ResourceModel's 0.45 units/stream.
    double compute_units = 45.0;
    double storage_mb = 32.0 * 1024.0;
  };

  EdgeServer() : EdgeServer(Capacity{}) {}
  explicit EdgeServer(Capacity capacity,
                      transform::ResourceModel resource_model = {});

  const Capacity& capacity() const { return capacity_; }
  const transform::ResourceModel& resource_model() const {
    return resource_model_;
  }

  /// g(d_n(t)) for one request (depends on the requesting display).
  double compute_cost(const display::DisplaySpec& spec,
                      const media::Video& video) const;
  /// h(d_n(t)) for one request.
  double storage_cost(const media::Video& video) const;

  /// Checks constraints (6) and (7) for a candidate selection, given
  /// per-device costs.
  static bool feasible(const std::vector<int>& selection,
                       const std::vector<double>& compute_costs,
                       const std::vector<double>& storage_costs,
                       double compute_capacity, double storage_capacity);

 private:
  Capacity capacity_;
  transform::ResourceModel resource_model_;
};

}  // namespace lpvs::streaming
