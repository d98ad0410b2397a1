// lpvs-wire/session v2 — the client-facing binary session protocol.
//
// The paper's edge-server deployment (§V) has mobile clients report their
// battery / power state every slot and receive the scheduler's per-slot
// transform decision back.  This header defines the frames that carry that
// conversation over a TCP stream:
//
//   stream    := frame*
//   frame     := length(u32 LE) payload
//   payload   := magic(u32) version(u32) type(u8) body checksum(u64)
//
// `length` counts the payload bytes that follow it (including the FNV-1a
// checksum trailer, excluding the length field itself).  The payload is
// sealed with common::wire::seal — the same codec the fleet's handoff and
// checkpoint payloads use — so a flipped bit anywhere surfaces as kDataLoss
// at the decoder instead of a garbled schedule at the client.
//
// Session conversation (state machine in server.hpp / docs/server.md):
//
//   client                          server
//     HELLO  ──────────────────────▶        (admission control)
//            ◀────────────────────── HELLO_ACK | ERROR+close
//     REPORT(slot k) ──────────────▶        (cluster barrier)
//            ◀────────────────────── SCHEDULE(slot k)
//            ◀────────────────────── GRANT(slot k)
//     ... repeat per slot ...
//     BYE    ──────────────────────▶        (flush + close)
//
// Determinism contract: SCHEDULE/GRANT bodies are pure functions of the
// session's cluster composition and the reported state — never of socket
// interleaving — so the byte stream a session receives is bit-identical
// across runs (the serving integration test asserts it via FNV digests).
//
// Version history.  v2 (the joint ABR scheduler) appends streaming state
// to REPORT (buffer level, throughput estimate) and the granted bitrate
// rung to SCHEDULE.  All additions are strictly appended, so a v2 decoder
// accepts v1 frames by stopping at the old body length and leaving the new
// fields at their defaults (kMinVersion below); frames claiming any other
// version are rejected.  Encoders always emit kVersion.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "lpvs/common/status.hpp"
#include "lpvs/common/wire.hpp"

namespace lpvs::server::protocol {

/// "LWS1" little-endian: lpvs-wire/session.
inline constexpr std::uint32_t kMagic = 0x3153574Cu;
inline constexpr std::uint32_t kVersion = 2;
/// Oldest version this decoder still accepts (fields added since decode to
/// their struct defaults).
inline constexpr std::uint32_t kMinVersion = 1;

/// Hard ceiling on one frame's payload size.  Every body below fits in well
/// under 256 bytes; the slack covers ERROR messages.  A length prefix above
/// this is rejected *before* buffering, so a hostile 4 GiB length cannot
/// balloon the connection's inbound buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 4096;

/// Most chunks one GRANT may carry.  A client plays every granted chunk
/// in the slot, so this bounds how long one GRANT can hold a client: the
/// decoder rejects a larger count, and the daemon refuses to start with a
/// chunks_per_slot above it, so it never sends a GRANT its clients reject.
inline constexpr std::uint32_t kMaxGrantChunks = 4096;

enum class FrameType : std::uint8_t {
  kHello = 1,     ///< client → server: session open + device description
  kHelloAck = 2,  ///< server → client: admitted
  kReport = 3,    ///< client → server: battery/power state for one slot
  kSchedule = 4,  ///< server → client: the slot's transform decision
  kGrant = 5,     ///< server → client: the slot's chunk grant
  kBye = 6,       ///< client → server: orderly session end
  kError = 7,     ///< server → client: terminal error before close
};

const char* frame_type_name(FrameType type);

/// Session open.  Cluster fields bind the session to its virtual cluster:
/// the server barriers slot k of cluster c until all `cluster_size` members
/// have reported, which is what makes schedule bytes independent of socket
/// arrival order.  All members must agree on cluster_size.
struct Hello {
  std::uint64_t user_id = 0;
  std::uint64_t cluster_id = 0;
  std::uint32_t cluster_size = 1;
  /// Slots this session intends to play (drain bookkeeping; a session may
  /// still BYE early when its battery empties).
  std::uint32_t slots_total = 0;
  double battery_capacity_mwh = 13000.0;
  double bitrate_mbps = 3.0;
  std::uint8_t genre = 0;          ///< media::Genre, as its underlying value
  std::uint8_t giveup_percent = 0; ///< 0 = watches to the end regardless
};

struct HelloAck {
  std::uint64_t user_id = 0;
  /// Slot the cluster will schedule next (0 for a fresh cluster); lets a
  /// client joining a drained-and-reformed cluster resynchronize.
  std::uint32_t next_slot = 0;
};

/// Per-slot battery/power report.  `observed_delta` is the realized power
/// reduction measured while playing the *previous* slot transformed — the
/// Bayes observation of gamma_n (§V-D); has_delta = 0 when the previous
/// slot ran untransformed (no observation exists).
struct Report {
  std::uint32_t slot = 0;
  double battery_fraction = 1.0;
  double observed_delta = 0.0;
  std::uint8_t has_delta = 0;
  std::uint8_t watching = 1;  ///< 0 = giving up; the session will BYE next
  // --- v2: client streaming state for the joint ABR scheduler.  A v1
  // --- client reports neither; 0 throughput reads as "unknown" and keeps
  // --- the granted rung at the ladder floor.
  double buffer_s = 0.0;          ///< playout buffer level, seconds
  double throughput_mbps = 0.0;   ///< client's own throughput estimate
};

/// The scheduler's decision for one session's slot.
struct Schedule {
  std::uint32_t slot = 0;
  std::uint8_t transform = 0;      ///< x_n for this device
  std::uint8_t rung = 0;           ///< core::DegradationRung actually used
  double expected_gamma = 0.0;     ///< the posterior mean the solve used
  double objective = 0.0;          ///< cluster objective (13) achieved
  std::uint32_t selected_count = 0;
  std::uint32_t cluster_devices = 0;
  // --- v2: the granted bitrate-ladder rung from the joint ABR solve.  A
  // --- v1 server grants neither; bitrate_mbps 0 means "no grant, keep
  // --- your current rate" so old-server/new-client sessions stay valid.
  std::uint8_t bitrate_rung = 0;   ///< index into the ladder
  double bitrate_mbps = 0.0;       ///< the rung's bitrate (0 = ungoverned)
};

/// Chunk grant for the slot: what the client may fetch and at what
/// effective power scale (1 - gamma when transformed, 1 otherwise).
struct Grant {
  std::uint32_t slot = 0;
  std::uint32_t chunks = 0;
  double chunk_seconds = 0.0;
  double power_scale = 1.0;
};

struct Bye {
  std::uint8_t reason = 0;  ///< 0 = completed, 1 = gave up, 2 = battery dead
};

struct Error {
  std::uint8_t code = 0;  ///< common::StatusCode, as its underlying value
  std::string message;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHello;
  std::variant<Hello, HelloAck, Report, Schedule, Grant, Bye, Error> body;

  template <typename T>
  const T& as() const {
    return std::get<T>(body);
  }
};

/// Encodes a frame into its full wire form: length prefix + sealed payload.
std::vector<std::uint8_t> encode(const Frame& frame);

/// Appends the frame's wire form to `out` without intermediate buffers —
/// the serving hot path: a session's outbound vector accumulates
/// SCHEDULE+GRANT back to back and both leave in one write(2).
void encode_into(const Frame& frame, std::vector<std::uint8_t>& out);

/// Convenience constructors (fill Frame::type from the body type).
Frame make_frame(Hello body);
Frame make_frame(HelloAck body);
Frame make_frame(Report body);
Frame make_frame(Schedule body);
Frame make_frame(Grant body);
Frame make_frame(Bye body);
Frame make_frame(Error body);

/// Decodes one *payload* (the bytes after a length prefix).  Rejects bad
/// checksums (kDataLoss), short bodies and HELLO/REPORT bodies carrying
/// numbers the scheduler cannot use (kDataLoss: a non-finite value, a
/// battery fraction outside [0, 1], a capacity or bitrate <= 0), unknown
/// magic/version/type and trailing garbage (kInvalidArgument).
common::StatusOr<Frame> decode_payload(std::vector<std::uint8_t> payload);

/// Span form: decodes a payload in place (no copy, no mutation) — what
/// FrameDecoder uses to parse frames directly out of its receive buffer.
common::StatusOr<Frame> decode_payload(const std::uint8_t* data,
                                       std::size_t size);

/// Incremental frame decoder over a byte stream with partial-I/O handling:
/// feed() whatever the socket produced, then drain next() until it reports
/// kNeedMore.  A non-ok status is terminal for the stream (the server drops
/// the connection); the decoder does not resynchronize mid-stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes from the transport.
  void feed(const std::uint8_t* data, std::size_t count);

  struct Result {
    enum class Kind { kFrame, kNeedMore, kError };
    Kind kind = Kind::kNeedMore;
    Frame frame;            ///< valid when kind == kFrame
    common::Status status;  ///< non-ok when kind == kError
  };

  /// Extracts the next complete frame, if any.
  Result next();

  /// Bytes buffered but not yet consumed by a complete frame.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// Returns the decoder to its as-new state, keeping buffer capacity —
  /// pooled connections reuse one decoder across sessions.
  void reset() {
    buffer_.clear();
    consumed_ = 0;
  }

  /// Adjusts the frame-size ceiling (pooled connections are constructed
  /// once with the default and re-limited per daemon config on acquire).
  void set_limit(std::uint32_t max_frame_bytes) {
    max_frame_bytes_ = max_frame_bytes;
  }

  /// Moves out the unconsumed suffix (a partial or pipelined next frame)
  /// and resets the decoder — the dispatcher hands these bytes to the
  /// worker reactor along with the socket.
  std::vector<std::uint8_t> take_unconsumed() {
    std::vector<std::uint8_t> out(
        buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_),
        buffer_.end());
    reset();
    return out;
  }

 private:
  std::uint32_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
};

}  // namespace lpvs::server::protocol
