#include "lpvs/server/protocol.hpp"

#include <cmath>
#include <cstring>
#include <utility>

namespace lpvs::server::protocol {
namespace {

using common::wire::Reader;
using common::wire::Writer;

// decode_body takes the frame's claimed version so the two frames v2
// extended can stop early on v1 bodies (appended fields keep their struct
// defaults); every other body ignores it.  The client-sent bodies (HELLO,
// REPORT) also reject numbers the scheduler cannot use, so a hostile value
// takes the malformed-frame path instead of reaching a solve; the
// server-sent SCHEDULE and GRANT reject numbers a client cannot play by.

bool positive(double v) { return std::isfinite(v) && v > 0.0; }

void encode_body(Writer& w, const Hello& b) {
  w.u64(b.user_id);
  w.u64(b.cluster_id);
  w.u32(b.cluster_size);
  w.u32(b.slots_total);
  w.f64(b.battery_capacity_mwh);
  w.f64(b.bitrate_mbps);
  w.u8(b.genre);
  w.u8(b.giveup_percent);
}

bool decode_body(Reader& r, Hello& b, std::uint32_t) {
  return r.u64(b.user_id) && r.u64(b.cluster_id) && r.u32(b.cluster_size) &&
         r.u32(b.slots_total) && r.f64(b.battery_capacity_mwh) &&
         r.f64(b.bitrate_mbps) && r.u8(b.genre) && r.u8(b.giveup_percent) &&
         positive(b.battery_capacity_mwh) && positive(b.bitrate_mbps);
}

void encode_body(Writer& w, const HelloAck& b) {
  w.u64(b.user_id);
  w.u32(b.next_slot);
}

bool decode_body(Reader& r, HelloAck& b, std::uint32_t) {
  return r.u64(b.user_id) && r.u32(b.next_slot);
}

void encode_body(Writer& w, const Report& b) {
  w.u32(b.slot);
  w.f64(b.battery_fraction);
  w.f64(b.observed_delta);
  w.u8(b.has_delta);
  w.u8(b.watching);
  w.f64(b.buffer_s);
  w.f64(b.throughput_mbps);
}

bool decode_body(Reader& r, Report& b, std::uint32_t version) {
  if (!(r.u32(b.slot) && r.f64(b.battery_fraction) &&
        r.f64(b.observed_delta) && r.u8(b.has_delta) && r.u8(b.watching))) {
    return false;
  }
  // !(a <= x && x <= b) also rejects NaN.
  if (!(0.0 <= b.battery_fraction && b.battery_fraction <= 1.0) ||
      !std::isfinite(b.observed_delta)) {
    return false;
  }
  if (version < 2) return true;  // v1 body ends here; defaults stand
  return r.f64(b.buffer_s) && r.f64(b.throughput_mbps) &&
         std::isfinite(b.buffer_s) && std::isfinite(b.throughput_mbps);
}

void encode_body(Writer& w, const Schedule& b) {
  w.u32(b.slot);
  w.u8(b.transform);
  w.u8(b.rung);
  w.f64(b.expected_gamma);
  w.f64(b.objective);
  w.u32(b.selected_count);
  w.u32(b.cluster_devices);
  w.u8(b.bitrate_rung);
  w.f64(b.bitrate_mbps);
}

bool decode_body(Reader& r, Schedule& b, std::uint32_t version) {
  if (!(r.u32(b.slot) && r.u8(b.transform) && r.u8(b.rung) &&
        r.f64(b.expected_gamma) && r.f64(b.objective) &&
        r.u32(b.selected_count) && r.u32(b.cluster_devices))) {
    return false;
  }
  if (version < 2) return true;  // v1 body ends here; defaults stand
  return r.u8(b.bitrate_rung) && r.f64(b.bitrate_mbps) &&
         std::isfinite(b.bitrate_mbps) && b.bitrate_mbps >= 0.0;
}

void encode_body(Writer& w, const Grant& b) {
  w.u32(b.slot);
  w.u32(b.chunks);
  w.f64(b.chunk_seconds);
  w.f64(b.power_scale);
}

bool decode_body(Reader& r, Grant& b, std::uint32_t) {
  // a <= x && x <= b is false for NaN too.
  return r.u32(b.slot) && r.u32(b.chunks) && r.f64(b.chunk_seconds) &&
         r.f64(b.power_scale) && b.chunks <= kMaxGrantChunks &&
         positive(b.chunk_seconds) && 0.0 <= b.power_scale &&
         b.power_scale <= 1.0;
}

void encode_body(Writer& w, const Bye& b) { w.u8(b.reason); }

bool decode_body(Reader& r, Bye& b, std::uint32_t) { return r.u8(b.reason); }

void encode_body(Writer& w, const Error& b) {
  w.u8(b.code);
  w.str(b.message);
}

bool decode_body(Reader& r, Error& b, std::uint32_t) {
  return r.u8(b.code) && r.str(b.message);
}

template <typename Body>
common::StatusOr<Frame> finish_decode(Reader& r, FrameType type,
                                      std::uint32_t version) {
  Body body;
  if (!decode_body(r, body, version)) {
    return common::Status::DataLoss("truncated or out-of-range frame body");
  }
  if (!r.exhausted()) {
    return common::Status::InvalidArgument("trailing bytes after frame body");
  }
  Frame frame;
  frame.type = type;
  frame.body = std::move(body);
  return frame;
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kReport: return "REPORT";
    case FrameType::kSchedule: return "SCHEDULE";
    case FrameType::kGrant: return "GRANT";
    case FrameType::kBye: return "BYE";
    case FrameType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

void encode_into(const Frame& frame, std::vector<std::uint8_t>& out) {
  // Reserve the length prefix, write the payload in place, seal it, then
  // patch the prefix — no per-frame temporary buffers.
  const std::size_t prefix_at = out.size();
  out.insert(out.end(), 4, 0);
  const std::size_t payload_at = out.size();

  Writer w(&out);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u8(static_cast<std::uint8_t>(frame.type));
  std::visit([&w](const auto& body) { encode_body(w, body); }, frame.body);
  common::wire::seal(out, payload_at);

  const auto length = static_cast<std::uint32_t>(out.size() - payload_at);
  for (int i = 0; i < 4; ++i) {
    out[prefix_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((length >> (8 * i)) & 0xFFu);
  }
}

std::vector<std::uint8_t> encode(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_into(frame, out);
  return out;
}

Frame make_frame(Hello body) {
  return Frame{FrameType::kHello, std::move(body)};
}
Frame make_frame(HelloAck body) {
  return Frame{FrameType::kHelloAck, std::move(body)};
}
Frame make_frame(Report body) {
  return Frame{FrameType::kReport, std::move(body)};
}
Frame make_frame(Schedule body) {
  return Frame{FrameType::kSchedule, std::move(body)};
}
Frame make_frame(Grant body) {
  return Frame{FrameType::kGrant, std::move(body)};
}
Frame make_frame(Bye body) { return Frame{FrameType::kBye, std::move(body)}; }
Frame make_frame(Error body) {
  return Frame{FrameType::kError, std::move(body)};
}

common::StatusOr<Frame> decode_payload(std::vector<std::uint8_t> payload) {
  return decode_payload(payload.data(), payload.size());
}

common::StatusOr<Frame> decode_payload(const std::uint8_t* data,
                                       std::size_t size) {
  const common::Status sealed = common::wire::verify_seal(data, size);
  if (!sealed.ok()) return sealed;

  Reader r(data, size - 8);  // the trailer is not part of the body
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint8_t type_raw = 0;
  if (!r.u32(magic) || !r.u32(version) || !r.u8(type_raw)) {
    return common::Status::DataLoss("truncated frame header");
  }
  if (magic != kMagic) {
    return common::Status::InvalidArgument("not an lpvs-wire/session frame");
  }
  if (version < kMinVersion || version > kVersion) {
    return common::Status::InvalidArgument("unsupported session version");
  }
  switch (static_cast<FrameType>(type_raw)) {
    case FrameType::kHello:
      return finish_decode<Hello>(r, FrameType::kHello, version);
    case FrameType::kHelloAck:
      return finish_decode<HelloAck>(r, FrameType::kHelloAck, version);
    case FrameType::kReport:
      return finish_decode<Report>(r, FrameType::kReport, version);
    case FrameType::kSchedule:
      return finish_decode<Schedule>(r, FrameType::kSchedule, version);
    case FrameType::kGrant:
      return finish_decode<Grant>(r, FrameType::kGrant, version);
    case FrameType::kBye:
      return finish_decode<Bye>(r, FrameType::kBye, version);
    case FrameType::kError:
      return finish_decode<Error>(r, FrameType::kError, version);
  }
  return common::Status::InvalidArgument("unknown frame type");
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t count) {
  // Compact lazily: drop the consumed prefix before growing, so a chatty
  // connection does not accumulate an unbounded buffer of decoded frames.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + count);
}

FrameDecoder::Result FrameDecoder::next() {
  Result result;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return result;  // kNeedMore: partial length prefix

  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(buffer_[consumed_ + i]) << (8 * i);
  }
  if (length > max_frame_bytes_) {
    result.kind = Result::Kind::kError;
    result.status = common::Status::InvalidArgument(
        "frame length " + std::to_string(length) + " exceeds limit " +
        std::to_string(max_frame_bytes_));
    return result;
  }
  // A sealed payload is at least header (9) + checksum (8) bytes.
  if (length < 17) {
    result.kind = Result::Kind::kError;
    result.status = common::Status::DataLoss("frame shorter than a header");
    return result;
  }
  if (available < 4 + static_cast<std::size_t>(length)) {
    return result;  // kNeedMore: partial payload
  }

  // Decode straight out of the receive buffer; no per-frame payload copy.
  common::StatusOr<Frame> decoded =
      decode_payload(buffer_.data() + consumed_ + 4, length);
  consumed_ += 4 + length;
  if (!decoded.ok()) {
    result.kind = Result::Kind::kError;
    result.status = decoded.status();
    return result;
  }
  result.kind = Result::Kind::kFrame;
  result.frame = std::move(decoded).value();
  return result;
}

}  // namespace lpvs::server::protocol
