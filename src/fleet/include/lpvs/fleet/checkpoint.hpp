// Versioned server checkpoints and the replicated store that failover
// restores them from (fleet tentpole, part 3).
//
// An edge server's scheduler state is exactly: the per-session Bayes
// posteriors + last assignments (SessionState) and its slot counter.  Its
// solve cache is not part of it: before every solve the server re-seeds
// the cache's warm start from the sessions' last assignments, so those
// bits are all a restored server needs to warm-start where the crashed one
// left off.  A Checkpoint snapshots that state into a sealed, versioned
// binary frame
// (wire.hpp; doubles as bit patterns) — so when fault::FaultSite::
// kServerCrash wipes a server's memory, the peer that picks up its
// logical cluster decodes the latest checkpoint and resumes *bit-for-bit*
// where the crashed server would have been at the checkpointed slot.
// With checkpoint_interval = 1 (a fresh checkpoint every slot) the
// resumed replay is bit-identical to a run with no crash at all
// (tests/fleet_failover_test.cpp); with a longer interval the posterior
// updates since the snapshot are lost, measured by the
// fleet_posterior_staleness_slots histogram.
//
// The JSON sidecar (to_json) is diagnostics only — decimal formatting
// cannot round-trip doubles bit-exactly, so restore always reads the
// binary frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "lpvs/common/json.hpp"
#include "lpvs/common/status.hpp"
#include "lpvs/fleet/handoff.hpp"

namespace lpvs::fleet {

/// Snapshot of one edge server's scheduler state at the end of a slot.
struct Checkpoint {
  /// Frame layout version; decode() accepts no other.  Version 1 frames
  /// also carried the server's solve-cache entries.
  static constexpr std::uint32_t kVersion = 2;

  std::uint64_t server = 0;
  /// The slot whose end this snapshot captured; -1 = before any slot ran.
  std::int64_t slot = -1;
  std::uint64_t slots_run = 0;
  /// Sessions sorted by user id (the servers' own deterministic order).
  std::vector<SessionState> sessions;

  /// Sealed, versioned binary frame.
  std::vector<std::uint8_t> encode() const;
  /// encode().size(), known before encoding: encode() reserves exactly
  /// this, so the frame (seal trailer included) is allocated once.
  std::size_t encoded_size() const;
  /// kInvalidArgument for a foreign/mis-versioned frame, kDataLoss for a
  /// corrupted or truncated one.
  static common::StatusOr<Checkpoint> decode(std::vector<std::uint8_t> bytes);

  /// Human-readable sidecar (posterior means, counters).
  common::Json to_json() const;
};

/// The peers' replicated checkpoint memory.  In the emulation this is one
/// in-process map; the protocol it models is "every end-of-interval
/// checkpoint is replicated off-box before the next slot starts", which is
/// why a crash can always restore the *latest stored* checkpoint and why
/// restore() decodes rather than returning live objects — failover pays
/// the full serialization path.
class CheckpointStore {
 public:
  /// Stores `bytes` as the latest checkpoint for `server`.
  void put(std::uint64_t server, std::vector<std::uint8_t> bytes);

  /// Decodes the latest checkpoint for `server`; kNotFound when the server
  /// never checkpointed.
  common::StatusOr<Checkpoint> restore(std::uint64_t server) const;

  /// Drops `server`'s checkpoint: a retired server's memory is not kept,
  /// so if its id joins again it starts from empty state.
  void erase(std::uint64_t server);

  bool contains(std::uint64_t server) const;
  std::size_t size() const { return latest_.size(); }
  /// Total bytes currently replicated (capacity accounting for benches).
  std::size_t stored_bytes() const;

 private:
  std::map<std::uint64_t, std::vector<std::uint8_t>> latest_;
};

}  // namespace lpvs::fleet
