#include "lpvs/streaming/streaming.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lpvs::streaming {

const media::Video& CdnServer::publish(media::Video video) {
  const std::uint32_t key = video.id.value;
  return catalog_.insert_or_assign(key, std::move(video)).first->second;
}

void CdnServer::retire(common::VideoId id) { catalog_.erase(id.value); }

const media::Video* CdnServer::find(common::VideoId id) const {
  const auto it = catalog_.find(id.value);
  return it == catalog_.end() ? nullptr : &it->second;
}

std::vector<common::ChunkId> CdnServer::chunk_ids(common::VideoId id) const {
  std::vector<common::ChunkId> ids;
  if (const media::Video* video = find(id)) {
    ids.reserve(video->chunks.size());
    for (const media::VideoChunk& chunk : video->chunks) {
      ids.push_back(chunk.id);
    }
  }
  return ids;
}

EdgeCache::EdgeCache(double capacity_mb) : capacity_mb_(capacity_mb) {
  assert(capacity_mb > 0.0);
  constexpr int kInitialLog2 = 4;
  index_.assign(std::size_t{1} << kInitialLog2, Bucket{0, kNil});
  index_shift_ = 64 - kInitialLog2;
}

std::size_t EdgeCache::home(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of the product depend on every key bit.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                  index_shift_);
}

std::size_t EdgeCache::probe(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t bucket = home(key);
  while (index_[bucket].node != kNil && index_[bucket].key != key) {
    bucket = (bucket + 1) & mask;
  }
  return bucket;
}

void EdgeCache::index_erase(std::size_t hole) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one in front of its home bucket.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; index_[next].node != kNil;
       next = (next + 1) & mask) {
    const std::size_t want = home(index_[next].key);
    if (((next - want) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole].node = kNil;
}

void EdgeCache::grow_index() {
  std::vector<Bucket> old(index_.size() * 2, Bucket{0, kNil});
  old.swap(index_);
  --index_shift_;
  for (const Bucket& bucket : old) {
    if (bucket.node != kNil) index_[probe(bucket.key)] = bucket;
  }
}

void EdgeCache::unlink(std::uint32_t node) {
  const Node& n = nodes_[node];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void EdgeCache::link_front(std::uint32_t node) {
  nodes_[node].prev = kNil;
  nodes_[node].next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = node;
  } else {
    tail_ = node;
  }
  head_ = node;
}

common::Status EdgeCache::insert(common::VideoId video,
                                 const media::VideoChunk& chunk) {
  const std::uint64_t key = make_key(video, chunk.id);
  if (const Bucket& hit = index_[probe(key)]; hit.node != kNil) {
    // Already cached: refresh recency only.
    unlink(hit.node);
    link_front(hit.node);
    return common::Status::Ok();
  }
  const double size_mb = chunk.bitrate_mbps * chunk.duration.value / 8.0;
  if (size_mb > capacity_mb_) {
    return common::Status::ResourceExhausted(
        "chunk exceeds whole cache capacity");
  }
  while (used_mb_ + size_mb > capacity_mb_) evict_one();
  std::uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node].key = key;
  nodes_[node].size_mb = size_mb;
  link_front(node);
  if (2 * (entries_ + 1) > index_.size()) grow_index();
  index_[probe(key)] = Bucket{key, node};
  ++entries_;
  used_mb_ += size_mb;
  return common::Status::Ok();
}

void EdgeCache::evict_one() {
  assert(tail_ != kNil);
  const std::uint32_t victim = tail_;
  used_mb_ -= nodes_[victim].size_mb;
  index_erase(probe(nodes_[victim].key));
  unlink(victim);
  nodes_[victim].next = free_;
  free_ = victim;
  --entries_;
  ++evictions_;
}

bool EdgeCache::contains(common::VideoId video, common::ChunkId chunk) const {
  return index_[probe(make_key(video, chunk))].node != kNil;
}

bool EdgeCache::touch(common::VideoId video, common::ChunkId chunk) {
  const std::uint32_t node = index_[probe(make_key(video, chunk))].node;
  if (node == kNil) return false;
  unlink(node);
  link_front(node);
  return true;
}

common::StatusOr<int> Prefetcher::prefetch(const CdnServer& cdn,
                                           EdgeCache& cache,
                                           common::VideoId video,
                                           std::size_t next_chunk_index,
                                           const fault::FaultInjector* faults,
                                           std::uint64_t fault_key) const {
  const media::Video* source = cdn.find(video);
  if (source == nullptr) {
    return common::Status::NotFound("video not in CDN catalog");
  }
  // Attempts of one chunk's delivery draw distinct decisions; the stride
  // bounds the retry budget a backoff policy may configure.
  constexpr std::uint64_t kAttemptStride = 64;
  const bool lossy = faults != nullptr && faults->enabled();
  int inserted = 0;
  const std::size_t end = std::min(
      source->chunks.size(), next_chunk_index + static_cast<std::size_t>(
                                                     std::max(window_, 0)));
  for (std::size_t k = next_chunk_index; k < end; ++k) {
    if (cache.contains(video, source->chunks[k].id)) continue;
    if (lossy) {
      const fault::RetryResult delivery = fault::retry_with_backoff(
          backoff_, [&](int attempt) -> common::Status {
            const fault::FaultDecision decision = faults->decide(
                fault::FaultSite::kChunkDelivery, fault_key,
                ((static_cast<std::uint64_t>(video.value) << 24) ^ k) *
                        kAttemptStride +
                    static_cast<std::uint64_t>(attempt));
            if (decision.dropped() || decision.corrupted()) {
              // A corrupted chunk fails its checksum at the edge and is
              // re-requested, which costs the same as a drop.
              return common::Status::Unavailable("chunk delivery");
            }
            return common::Status::Ok();
          });
      if (!delivery.status.ok()) continue;  // retried next slot
    }
    if (cache.insert(video, source->chunks[k]).ok()) ++inserted;
  }
  return inserted;
}

ChunkRequest available_request(const CdnServer& cdn, const EdgeCache& cache,
                               common::VideoId video,
                               std::size_t next_chunk_index,
                               std::size_t max_chunks) {
  ChunkRequest request;
  request.video = video;
  const media::Video* source = cdn.find(video);
  if (source == nullptr) return request;
  const std::size_t end =
      std::min(source->chunks.size(), next_chunk_index + max_chunks);
  for (std::size_t k = next_chunk_index; k < end; ++k) {
    if (!cache.contains(video, source->chunks[k].id)) break;  // first gap
    request.chunks.push_back(source->chunks[k].id);
  }
  return request;
}

EdgeServer::EdgeServer(Capacity capacity,
                       transform::ResourceModel resource_model)
    : capacity_(capacity), resource_model_(resource_model) {}

double EdgeServer::compute_cost(const display::DisplaySpec& spec,
                                const media::Video& video) const {
  return resource_model_.compute_cost(spec, video);
}

double EdgeServer::storage_cost(const media::Video& video) const {
  return resource_model_.storage_cost(video);
}

bool EdgeServer::feasible(const std::vector<int>& selection,
                          const std::vector<double>& compute_costs,
                          const std::vector<double>& storage_costs,
                          double compute_capacity, double storage_capacity) {
  assert(selection.size() == compute_costs.size());
  assert(selection.size() == storage_costs.size());
  double compute = 0.0;
  double storage = 0.0;
  for (std::size_t n = 0; n < selection.size(); ++n) {
    if (selection[n] == 0) continue;
    compute += compute_costs[n];
    storage += storage_costs[n];
  }
  constexpr double kSlack = 1e-9;
  return compute <= compute_capacity + kSlack &&
         storage <= storage_capacity + kSlack;
}

}  // namespace lpvs::streaming
