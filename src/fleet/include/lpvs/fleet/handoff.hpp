// Session handoff between edge servers (fleet tentpole, part 2).
//
// When placement moves a user (roaming, server join/leave), everything the
// source server has *learned* about the user should move too — above all
// the Bayes gamma posterior, which took real observations to sharpen, plus
// the last reported battery status and the user's previous-slot assignment
// bit (the receiving server's solve-cache warm hint).  The transfer rides
// the same lossy-transport discipline as core::signaling: each delivery
// attempt draws a deterministic fault::FaultInjector decision (site
// kHandoffTransfer, keyed on user and slot*stride+attempt exactly like
// SignalingLink keys its exchanges), failed attempts retry under
// fault::retry_with_backoff with accounted-not-slept backoff, and a
// payload corrupted in flight is rejected by its checksum rather than
// installed.  When the whole retry budget burns out the receiver performs
// a *cold restart*: a fresh session at the prior — correctness is
// preserved, only the learned sharpness is lost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lpvs/bayes/gamma_estimator.hpp"
#include "lpvs/bayes/nig_estimator.hpp"
#include "lpvs/common/status.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fault/retry.hpp"
#include "lpvs/fleet/wire.hpp"

namespace lpvs::fleet {

/// Everything worth moving when a user's session changes servers.  Also
/// the per-session unit a fleet::Checkpoint snapshots.
struct SessionState {
  std::uint64_t user = 0;
  bayes::GammaEstimator::State gamma;
  bayes::NigGammaEstimator::State nig;
  /// Last battery status the source server heard (refreshed every slot by
  /// the device's own report; carried so the receiver can schedule the
  /// very next slot without waiting for one).
  double battery_fraction = 1.0;
  /// Previous-slot transform decision: the receiver folds it into its
  /// warm-start incumbent so the arriving user does not cold-start the
  /// destination's ILP stream.
  std::uint8_t last_assignment = 0;
  std::uint32_t slots_served = 0;
};

/// Versioned, checksum-sealed binary encoding (wire.hpp).  Bit-exact:
/// decode(encode(s)) reproduces every double to the bit, so the restored
/// posterior's next estimate equals the original's (tests assert ==).
std::vector<std::uint8_t> encode_session(const SessionState& state);
common::StatusOr<SessionState> decode_session(std::vector<std::uint8_t> bytes);

/// Unframed body-level encode/decode, shared with fleet::Checkpoint (which
/// embeds many sessions inside its own versioned, sealed frame).
void encode_session_body(wire::Writer& w, const SessionState& state);
bool decode_session_body(wire::Reader& r, SessionState& state);
/// Bytes encode_session_body writes for any session: the user id, the
/// Gaussian state (7 doubles + count), the NIG state (10 doubles + count),
/// the battery fraction, the assignment byte and the served-slot count.
inline constexpr std::size_t kSessionBodyBytes =
    8 + (7 * 8 + 8) + (10 * 8 + 8) + 8 + 1 + 4;

/// What one transfer attempt sequence came to.
struct HandoffOutcome {
  /// False = every attempt failed; the receiver must cold-restart.
  bool transferred = false;
  int attempts = 0;
  double backoff_ms = 0.0;  ///< accounted (not slept) retry backoff
  std::size_t payload_bytes = 0;
};

/// Moves SessionState between servers over the lossy channel.
class SessionHandoff {
 public:
  SessionHandoff() = default;
  explicit SessionHandoff(fault::BackoffPolicy backoff) : backoff_(backoff) {}

  /// Transfers `state` for slot `slot`.  On success `received` holds the
  /// decoded payload (bit-identical to `state` unless an injected
  /// corruption slipped past — it cannot: corruption fails the checksum
  /// and is retried).  Deterministic: decisions are keyed on
  /// (user, slot, attempt) only.  A null or disabled injector always
  /// succeeds on the first attempt.
  HandoffOutcome transfer(const fault::FaultInjector* injector,
                          const SessionState& state, std::uint64_t slot,
                          SessionState& received) const;

  const fault::BackoffPolicy& backoff() const { return backoff_; }

 private:
  fault::BackoffPolicy backoff_{};
};

}  // namespace lpvs::fleet
