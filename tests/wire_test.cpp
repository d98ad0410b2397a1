// common::wire — the shared codec under fleet payloads and the session
// protocol.  Round-trips, varint edge cases, seal/unseal corruption
// detection, and the fleet alias staying the same codec.
#include "lpvs/common/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "lpvs/fleet/wire.hpp"

namespace wire = lpvs::common::wire;
using lpvs::common::StatusCode;

TEST(WireWriter, FixedWidthRoundTrip) {
  wire::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.f64(-0.0);
  const std::vector<std::uint8_t> bytes = w.bytes();

  wire::Reader r(bytes);
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::int64_t d = 0;
  double e = 0.0, f = 1.0;
  ASSERT_TRUE(r.u8(a));
  ASSERT_TRUE(r.u32(b));
  ASSERT_TRUE(r.u64(c));
  ASSERT_TRUE(r.i64(d));
  ASSERT_TRUE(r.f64(e));
  ASSERT_TRUE(r.f64(f));
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFULL);
  EXPECT_EQ(d, -42);
  EXPECT_DOUBLE_EQ(e, 3.14159);
  EXPECT_TRUE(std::signbit(f));  // -0.0 travels bit-exactly
}

TEST(WireWriter, LittleEndianOnTheWire) {
  wire::Writer w;
  w.u32(0x01020304u);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(WireVarint, RoundTripsBoundaries) {
  const std::uint64_t values[] = {
      0,    1,    0x7F, 0x80, 0x3FFF, 0x4000, 1234567,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t value : values) {
    wire::Writer w;
    w.varint(value);
    wire::Reader r(w.bytes());
    std::uint64_t back = 0;
    ASSERT_TRUE(r.varint(back)) << value;
    EXPECT_EQ(back, value);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(WireVarint, SmallValuesCostOneByte) {
  wire::Writer w;
  w.varint(0x7F);
  EXPECT_EQ(w.bytes().size(), 1u);
}

TEST(WireVarint, RejectsEndlessContinuation) {
  // 11 bytes of continuation: more than any 64-bit value needs.
  std::vector<std::uint8_t> bytes(11, 0xFF);
  wire::Reader r(bytes);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.varint(v));
}

TEST(WireVarint, TruncatedContinuationFails) {
  wire::Writer w;
  w.varint(0x4000);  // multi-byte encoding
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  wire::Reader r(bytes);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.varint(v));
}

TEST(WireStr, RoundTripsAndRejectsOverlongLength) {
  wire::Writer w;
  w.str("schedule payload");
  {
    wire::Reader r(w.bytes());
    std::string s;
    ASSERT_TRUE(r.str(s));
    EXPECT_EQ(s, "schedule payload");
  }
  // A length prefix claiming more bytes than the buffer holds must fail
  // before allocating.
  wire::Writer bad;
  bad.varint(1000);
  bad.u8('x');
  wire::Reader r(bad.bytes());
  std::string s;
  EXPECT_FALSE(r.str(s));
}

TEST(WireReader, TruncationDetectedNotOverread) {
  wire::Writer w;
  w.u64(7);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.resize(5);
  wire::Reader r(bytes);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.u64(v));
  EXPECT_EQ(r.remaining(), 5u);  // failed read consumes nothing usable
}

TEST(WireSeal, RoundTrip) {
  wire::Writer w;
  w.u32(123);
  w.f64(0.31);
  std::vector<std::uint8_t> bytes = w.take();
  const std::size_t unsealed_size = bytes.size();
  wire::seal(bytes);
  EXPECT_EQ(bytes.size(), unsealed_size + 8);
  ASSERT_TRUE(wire::unseal(bytes).ok());
  EXPECT_EQ(bytes.size(), unsealed_size);
}

TEST(WireSeal, DetectsEveryBitFlip) {
  wire::Writer w;
  w.u64(0xFEEDFACEULL);
  w.f64(1.5);
  std::vector<std::uint8_t> sealed = w.take();
  wire::seal(sealed);
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> copy = sealed;
      copy[i] ^= static_cast<std::uint8_t>(1u << bit);
      const lpvs::common::Status status = wire::unseal(copy);
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(WireSeal, ShortBufferIsDataLoss) {
  std::vector<std::uint8_t> bytes(7, 0);  // shorter than a trailer
  EXPECT_EQ(wire::unseal(bytes).code(), StatusCode::kDataLoss);
}

TEST(WireSeal, VerifySealChecksInPlaceWithoutTruncating) {
  wire::Writer w;
  w.u64(0xC0FFEEULL);
  w.f64(-2.75);
  std::vector<std::uint8_t> sealed = w.take();
  wire::seal(sealed);
  const std::vector<std::uint8_t> original = sealed;
  EXPECT_TRUE(wire::verify_seal(sealed.data(), sealed.size()).ok());
  EXPECT_EQ(sealed, original);  // span form neither copies nor truncates

  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::vector<std::uint8_t> flipped = sealed;
    flipped[i] ^= 0x01u;
    EXPECT_EQ(wire::verify_seal(flipped.data(), flipped.size()).code(),
              StatusCode::kDataLoss)
        << "byte " << i;
  }
  EXPECT_EQ(wire::verify_seal(sealed.data(), 7).code(), StatusCode::kDataLoss);
  // The trailer covers its prefix only: dropping a payload byte breaks it.
  EXPECT_FALSE(wire::verify_seal(sealed.data() + 1, sealed.size() - 1).ok());
}

TEST(WireSeal, SuffixSealCoversEachFrameAlone) {
  // Two frames sealed back to back in one buffer, as the in-place encode
  // path writes them: each verifies on its own span.
  std::vector<std::uint8_t> buffer;
  wire::Writer w(&buffer);
  w.u32(7);
  w.str("first");
  wire::seal(buffer, 0);
  const std::size_t second_start = buffer.size();
  w.u64(99);
  wire::seal(buffer, second_start);

  EXPECT_TRUE(wire::verify_seal(buffer.data(), second_start).ok());
  EXPECT_TRUE(wire::verify_seal(buffer.data() + second_start,
                                buffer.size() - second_start)
                  .ok());
  // The whole buffer is not one sealed payload.
  EXPECT_FALSE(wire::verify_seal(buffer.data(), buffer.size()).ok());

  std::vector<std::uint8_t> first(buffer.begin(),
                                  buffer.begin() + static_cast<std::ptrdiff_t>(
                                                       second_start));
  ASSERT_TRUE(wire::unseal(first).ok());
  wire::Reader r(first);
  std::uint32_t seven = 0;
  std::string text;
  ASSERT_TRUE(r.u32(seven));
  ASSERT_TRUE(r.str(text));
  EXPECT_EQ(seven, 7u);
  EXPECT_EQ(text, "first");
  EXPECT_TRUE(r.exhausted());
}

TEST(WireChecksum, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 100; ++i) bytes.push_back(static_cast<std::uint8_t>(i));
  const std::uint64_t one_shot = wire::checksum(bytes, bytes.size());
  std::uint64_t incremental = wire::kFnvOffsetBasis;
  incremental = wire::fnv1a(incremental, bytes.data(), 37);
  incremental = wire::fnv1a(incremental, bytes.data() + 37, bytes.size() - 37);
  EXPECT_EQ(incremental, one_shot);
}

TEST(WireFleetAlias, SameCodec) {
  // fleet::wire must be the common codec, not a duplicate: a payload sealed
  // through the fleet alias unseals through common and vice versa.
  lpvs::fleet::wire::Writer w;
  w.u32(99);
  std::vector<std::uint8_t> bytes = w.take();
  lpvs::fleet::wire::seal(bytes);
  EXPECT_TRUE(wire::unseal(bytes).ok());
  static_assert(
      std::is_same_v<lpvs::fleet::wire::Writer, wire::Writer>,
      "fleet::wire must alias the common codec");
}
