// Shared binary wire codec (fixed-width fields, varints, FNV-1a sealing).
//
// Two independent wire formats grew out of the fleet work: the inter-server
// payloads (session handoff, checkpoints) and the client-facing session
// protocol served by src/server.  Both need the same primitives — and the
// same guarantees — so the codec lives here, in common, and the format
// layers (fleet/wire.hpp, server/protocol.hpp) build frame layouts on top:
//
//   - Bit-exact round-trips: doubles travel as their IEEE-754 bit patterns
//     (std::bit_cast through uint64) rather than through any decimal
//     formatting, because the failover / handoff / serving acceptance tests
//     compare posteriors and whole schedules bit for bit.
//   - Fixed endianness: integers are little-endian regardless of host order.
//   - Detected corruption: payloads are sealed with an FNV-1a checksum
//     trailer so a corrupted transfer is *detected* (kDataLoss) instead of
//     silently installing a garbled posterior or schedule at the receiver.
//   - No overreads: every Reader accessor reports truncation instead of
//     walking past the end, so a short payload surfaces as a decode error
//     rather than undefined behavior.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "lpvs/common/status.hpp"

namespace lpvs::common::wire {

/// Appends fixed-width fields to a byte buffer.  By default the Writer
/// owns its buffer; the hot serving path instead binds one to an existing
/// (reused) vector so per-frame encoding appends in place and a session's
/// outbound buffer is the only allocation, amortized to zero once grown.
class Writer {
 public:
  Writer() : bytes_(&owned_) {}
  /// Appends to `out` (which the caller keeps owning); take() is invalid.
  explicit Writer(std::vector<std::uint8_t>* out) : bytes_(out) {}

  void u8(std::uint8_t v) { bytes_->push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint: 7 bits per byte, high bit = continuation.
  /// Small values (lengths, counts) cost one byte instead of eight.
  void varint(std::uint64_t v) {
    while (v >= 0x80u) {
      bytes_->push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    bytes_->push_back(static_cast<std::uint8_t>(v));
  }

  /// Length-prefixed (varint) byte string.
  void str(const std::string& s) {
    varint(s.size());
    bytes_->insert(bytes_->end(), s.begin(), s.end());
  }

  /// Makes room for `extra` more bytes, so an encoder that knows its
  /// frame size grows the buffer once instead of geometrically.
  void reserve(std::size_t extra) { bytes_->reserve(bytes_->size() + extra); }

  const std::vector<std::uint8_t>& bytes() const { return *bytes_; }
  std::vector<std::uint8_t> take() { return std::move(owned_); }

 private:
  /// One size change per fixed-width field; the bytes are stored by shift,
  /// so the wire stays little-endian whatever the host's byte order.
  template <typename T>
  void put_le(T v) {
    const std::size_t at = bytes_->size();
    bytes_->resize(at + sizeof(T));
    std::uint8_t* out = bytes_->data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* bytes_;
};

/// Reads fixed-width fields back; every read reports truncation instead of
/// walking past the end, so a short payload surfaces as kDataLoss at the
/// decode layer rather than as undefined behavior.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}
  /// Reads from a borrowed span — the in-place decode path: the serving
  /// layer parses frames directly out of the connection's receive buffer
  /// without copying each payload into its own vector first.
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > size_) return false;
    v = data_[pos_++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > size_) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > size_) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool i64(std::int64_t& v) {
    std::uint64_t raw = 0;
    if (!u64(raw)) return false;
    v = static_cast<std::int64_t>(raw);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t raw = 0;
    if (!u64(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }

  /// LEB128 unsigned varint.  Rejects encodings longer than 10 bytes (the
  /// maximum a 64-bit value needs), so a malicious all-continuation stream
  /// cannot spin the decoder.
  bool varint(std::uint64_t& v) {
    v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte = 0;
      if (!u8(byte)) return false;
      v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return true;
    }
    return false;  // 10th byte still had the continuation bit set
  }

  /// Varint-length-prefixed byte string.  Rejects lengths running past the
  /// end of the buffer before allocating.
  bool str(std::string& s) {
    std::uint64_t length = 0;
    if (!varint(length)) return false;
    if (pos_ + length > size_) return false;
    s.assign(reinterpret_cast<const char*>(data_ + pos_),
             static_cast<std::size_t>(length));
    pos_ += length;
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// 64-bit FNV-1a over the first `count` bytes of the buffer.
std::uint64_t checksum(const std::vector<std::uint8_t>& bytes,
                       std::size_t count);

/// Incremental FNV-1a: fold more bytes into a running hash.  Used by the
/// serving layer to digest the schedule payload stream a session receives.
std::uint64_t fnv1a(std::uint64_t hash, const std::uint8_t* data,
                    std::size_t count);

/// The FNV-1a offset basis — the seed for an incremental fnv1a() chain.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

/// Size of the checksum trailer seal() appends.
inline constexpr std::size_t kSealBytes = 8;

/// Appends a kSealBytes checksum trailer covering everything before it.
void seal(std::vector<std::uint8_t>& bytes);

/// Seals only the suffix [from, end): the in-place encode path, where one
/// outbound buffer holds several frames and each frame's trailer must
/// cover that frame's payload alone.
void seal(std::vector<std::uint8_t>& bytes, std::size_t from);

/// Verifies and strips the trailer; kDataLoss when the buffer is shorter
/// than a trailer or the checksum does not match the contents.
common::Status unseal(std::vector<std::uint8_t>& bytes);

/// Span form of unseal for in-place decoding: verifies that the last 8
/// bytes of [data, data+size) seal the prefix, without copying or
/// truncating.  On Ok the payload proper is the first size-8 bytes.
common::Status verify_seal(const std::uint8_t* data, std::size_t size);

}  // namespace lpvs::common::wire
