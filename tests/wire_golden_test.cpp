// The bytes on the wire, pinned.  Every fleet checkpoint, session handoff
// and telemetry frame is built by common::wire::Writer; these goldens fold
// whole encoded frames (edge-valued inputs included) into one FNV-1a digest
// each, so a change to how the Writer stores a field — however it is
// optimized — must leave every frame byte-for-byte the same.  The digests
// were computed with the byte-at-a-time Writer that preceded the word-wide
// one; the checkpoint's was re-pinned when its version-2 frame dropped the
// solve-cache section.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "lpvs/common/wire.hpp"
#include "lpvs/fleet/checkpoint.hpp"
#include "lpvs/fleet/handoff.hpp"
#include "lpvs/obs/telemetry.hpp"

namespace lpvs {
namespace {

namespace wire = common::wire;

constexpr double kNegZero = -0.0;
constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return wire::fnv1a(wire::kFnvOffsetBasis, bytes.data(), bytes.size());
}

/// A session whose every field sits at an edge: signed zero, subnormals,
/// infinities, the largest finite double, and all-ones integers.
fleet::SessionState edge_session(std::uint64_t user) {
  fleet::SessionState s;
  s.user = user;
  s.gamma.prior.mean = kNegZero;
  s.gamma.prior.variance = kSubnormal;
  s.gamma.prior.lower = -kSubnormal;
  s.gamma.prior.upper = std::numeric_limits<double>::max();
  s.gamma.prior.observation_variance = std::numeric_limits<double>::min();
  s.gamma.mean = 0.3125;
  s.gamma.variance = kInf;
  s.gamma.observations = kU64Max;
  s.nig.prior.mean = -kInf;
  s.nig.prior.kappa = 0.05;
  s.nig.prior.alpha = 1.5;
  s.nig.prior.beta = 0.0015;
  s.nig.prior.lower = kNegZero;
  s.nig.prior.upper = 1.0 / 3.0;
  s.nig.mean = -std::numeric_limits<double>::epsilon();
  s.nig.kappa = 1e308;
  s.nig.alpha = 2.5;
  s.nig.beta = kSubnormal * 3.0;
  s.nig.observations = 0x0102030405060708ULL;
  s.battery_fraction = kNegZero;
  s.last_assignment = 0xFF;
  s.slots_served = kU32Max;
  return s;
}

fleet::Checkpoint edge_checkpoint() {
  fleet::Checkpoint c;
  c.server = kU64Max;
  c.slot = std::numeric_limits<std::int64_t>::min();
  c.slots_run = kU64Max;
  c.sessions.push_back(edge_session(0));
  c.sessions.push_back(edge_session(kU32Max));
  c.sessions.push_back(edge_session(kU64Max));
  return c;
}

obs::telemetry::Frame delta_frame() {
  obs::telemetry::Frame frame;
  frame.type = obs::telemetry::FrameType::kDelta;
  frame.source_id = kU64Max;
  frame.time_ms = -1;
  frame.delta.sequence = kU32Max;
  frame.delta.base_sequence = 0x8000000000000000ULL;
  frame.delta.counters.push_back({"fleet_handoff_total", 127});
  frame.delta.counters.push_back({"", 1L << 40});
  frame.delta.gauges.push_back({"fleet_checkpoint_bytes", kNegZero});
  frame.delta.gauges.push_back({"lpvs_fleet_energy_mwh", kSubnormal});
  obs::HistogramDelta h;
  h.name = "lpvs_fleet_slot_serve_ms";
  h.upper_bounds = {0.05, 0.1, 0.25, kInf};
  h.bucket_increments = {0, 1, 128, 16384, 3};
  h.count_increment = 16516;
  h.sum_increment = 1e-300;
  frame.delta.histograms.push_back(h);
  return frame;
}

TEST(WireGolden, CheckpointFrameBytesArePinned) {
  const std::vector<std::uint8_t> bytes = edge_checkpoint().encode();
  EXPECT_EQ(bytes.size(), 563u);
  EXPECT_EQ(digest(bytes), 0x0D546AEA626E5BE9ULL);

  // The frame still decodes to the same edge values, bit for bit.
  common::StatusOr<fleet::Checkpoint> back = fleet::Checkpoint::decode(bytes);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back.value().encode(), bytes);
}

TEST(WireGolden, SessionHandoffFrameBytesArePinned) {
  const std::vector<std::uint8_t> bytes =
      fleet::encode_session(edge_session(0x0123456789ABCDEFULL));
  EXPECT_EQ(bytes.size(), 189u);
  EXPECT_EQ(digest(bytes), 0x149BEE6820B23047ULL);
}

TEST(WireGolden, TelemetryFrameBytesArePinned) {
  obs::telemetry::Frame hello;
  hello.type = obs::telemetry::FrameType::kHello;
  hello.source_id = 7;
  hello.label = "edge-7";
  std::vector<std::uint8_t> out;
  obs::telemetry::encode_into(hello, out);
  const std::size_t hello_size = out.size();
  obs::telemetry::encode_into(delta_frame(), out);
  EXPECT_EQ(hello_size, 36u);
  EXPECT_EQ(out.size(), 255u);
  EXPECT_EQ(digest(out), 0x59E8D9625CFA30F5ULL);
}

TEST(WireGolden, BoundWriterAppendsFixedWidthAfterExistingBytes) {
  std::vector<std::uint8_t> out = {0xAA, 0xBB, 0xCC};
  wire::Writer w(&out);
  w.u32(0x01020304u);
  w.u8(0x05);
  w.u64(0x060708090A0B0C0DULL);
  w.f64(kNegZero);
  const std::vector<std::uint8_t> expected = {
      0xAA, 0xBB, 0xCC,                                // untouched prefix
      0x04, 0x03, 0x02, 0x01,                          // u32, little-endian
      0x05,                                            // u8
      0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07, 0x06,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0's bit pattern
  };
  EXPECT_EQ(out, expected);
  EXPECT_EQ(&w.bytes(), &out);
}

TEST(WireGolden, SessionBodyBytesMatchTheEncoder) {
  for (const fleet::SessionState& state :
       {fleet::SessionState{}, edge_session(kU64Max)}) {
    wire::Writer w;
    fleet::encode_session_body(w, state);
    EXPECT_EQ(w.bytes().size(), fleet::kSessionBodyBytes);
  }
}

TEST(WireGolden, CheckpointReservesItsExactFrameSize) {
  fleet::Checkpoint sparse;  // no sessions
  for (const fleet::Checkpoint& checkpoint : {sparse, edge_checkpoint()}) {
    const std::vector<std::uint8_t> bytes = checkpoint.encode();
    EXPECT_EQ(checkpoint.encoded_size(), bytes.size());
    // Reserved once, up front: the seal's trailer did not reallocate.
    EXPECT_EQ(bytes.capacity(), bytes.size());
  }
}

}  // namespace
}  // namespace lpvs
