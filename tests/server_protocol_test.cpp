// lpvs-wire/session v1 — frame round-trips, incremental decoding under
// arbitrary fragmentation, and a table-driven malformed-input corpus: every
// mutation class a hostile or broken client can produce must surface as a
// clean Status, never as a crash or an accepted garbled frame.
#include "lpvs/server/protocol.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace protocol = lpvs::server::protocol;
namespace wire = lpvs::common::wire;
using lpvs::common::StatusCode;

namespace {

protocol::Hello sample_hello() {
  protocol::Hello hello;
  hello.user_id = 42;
  hello.cluster_id = 7;
  hello.cluster_size = 8;
  hello.slots_total = 200;
  hello.battery_capacity_mwh = 12345.5;
  hello.bitrate_mbps = 4.25;
  hello.genre = 3;
  hello.giveup_percent = 20;
  return hello;
}

/// Strips the length prefix: the bytes decode_payload consumes.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& framed) {
  return {framed.begin() + 4, framed.end()};
}

}  // namespace

TEST(SessionProtocol, HelloRoundTrip) {
  const protocol::Hello hello = sample_hello();
  const std::vector<std::uint8_t> framed =
      protocol::encode(protocol::make_frame(hello));
  auto decoded = protocol::decode_payload(payload_of(framed));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->type, protocol::FrameType::kHello);
  const auto& back = decoded->as<protocol::Hello>();
  EXPECT_EQ(back.user_id, hello.user_id);
  EXPECT_EQ(back.cluster_id, hello.cluster_id);
  EXPECT_EQ(back.cluster_size, hello.cluster_size);
  EXPECT_EQ(back.slots_total, hello.slots_total);
  EXPECT_DOUBLE_EQ(back.battery_capacity_mwh, hello.battery_capacity_mwh);
  EXPECT_DOUBLE_EQ(back.bitrate_mbps, hello.bitrate_mbps);
  EXPECT_EQ(back.genre, hello.genre);
  EXPECT_EQ(back.giveup_percent, hello.giveup_percent);
}

TEST(SessionProtocol, EveryFrameTypeRoundTrips) {
  std::vector<protocol::Frame> frames;
  frames.push_back(protocol::make_frame(sample_hello()));
  frames.push_back(protocol::make_frame(protocol::HelloAck{42, 3}));
  protocol::Report report;
  report.slot = 5;
  report.battery_fraction = 0.62;
  report.observed_delta = 0.27;
  report.has_delta = 1;
  report.watching = 1;
  frames.push_back(protocol::make_frame(report));
  protocol::Schedule schedule;
  schedule.slot = 5;
  schedule.transform = 1;
  schedule.rung = 2;
  schedule.expected_gamma = 0.31;
  schedule.objective = -123.75;
  schedule.selected_count = 6;
  schedule.cluster_devices = 8;
  frames.push_back(protocol::make_frame(schedule));
  frames.push_back(protocol::make_frame(protocol::Grant{5, 3, 100.0, 0.69}));
  frames.push_back(protocol::make_frame(protocol::Bye{1}));
  protocol::Error error;
  error.code = static_cast<std::uint8_t>(StatusCode::kResourceExhausted);
  error.message = "session limit reached";
  frames.push_back(protocol::make_frame(error));

  for (const protocol::Frame& frame : frames) {
    auto decoded = protocol::decode_payload(payload_of(protocol::encode(frame)));
    ASSERT_TRUE(decoded.ok())
        << protocol::frame_type_name(frame.type) << ": "
        << decoded.status().to_string();
    EXPECT_EQ(decoded->type, frame.type);
  }
  // Spot-check the string-bearing body.
  auto decoded =
      protocol::decode_payload(payload_of(protocol::encode(frames.back())));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->as<protocol::Error>().message, "session limit reached");
}

TEST(FrameDecoder, ByteAtATimeFeedYieldsIdenticalFrames) {
  const std::vector<std::uint8_t> one =
      protocol::encode(protocol::make_frame(sample_hello()));
  const std::vector<std::uint8_t> two =
      protocol::encode(protocol::make_frame(protocol::Grant{9, 3, 100.0, 1.0}));
  std::vector<std::uint8_t> stream = one;
  stream.insert(stream.end(), two.begin(), two.end());

  protocol::FrameDecoder decoder;
  std::vector<protocol::FrameType> seen;
  for (const std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    for (;;) {
      auto result = decoder.next();
      if (result.kind != protocol::FrameDecoder::Result::Kind::kFrame) {
        ASSERT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kNeedMore);
        break;
      }
      seen.push_back(result.frame.type);
    }
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], protocol::FrameType::kHello);
  EXPECT_EQ(seen[1], protocol::FrameType::kGrant);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, OneFeedOfSeveralFramesDrainsInOrder) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t slot = 0; slot < 5; ++slot) {
    protocol::Report report;
    report.slot = slot;
    report.battery_fraction = 0.5;
    const std::vector<std::uint8_t> framed =
        protocol::encode(protocol::make_frame(report));
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  protocol::FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  for (std::uint32_t slot = 0; slot < 5; ++slot) {
    auto result = decoder.next();
    ASSERT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kFrame);
    ASSERT_EQ(result.frame.type, protocol::FrameType::kReport);
    EXPECT_EQ(result.frame.as<protocol::Report>().slot, slot);
  }
  EXPECT_EQ(decoder.next().kind,
            protocol::FrameDecoder::Result::Kind::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, TakeUnconsumedHandsOverThePipelinedSuffix) {
  // The dispatcher decodes HELLO, then hands the socket and whatever
  // followed it to a worker: the suffix must resume decoding exactly.
  const std::vector<std::uint8_t> hello =
      protocol::encode(protocol::make_frame(sample_hello()));
  const std::vector<std::uint8_t> bye =
      protocol::encode(protocol::make_frame(protocol::Bye{1}));
  std::vector<std::uint8_t> stream = hello;
  const std::size_t split = 5;  // part of BYE arrives with HELLO
  stream.insert(stream.end(), bye.begin(), bye.begin() + split);

  protocol::FrameDecoder dispatcher;
  dispatcher.feed(stream.data(), stream.size());
  ASSERT_EQ(dispatcher.next().kind,
            protocol::FrameDecoder::Result::Kind::kFrame);
  ASSERT_EQ(dispatcher.next().kind,
            protocol::FrameDecoder::Result::Kind::kNeedMore);
  EXPECT_EQ(dispatcher.buffered(), split);
  const std::vector<std::uint8_t> suffix = dispatcher.take_unconsumed();
  EXPECT_EQ(suffix, std::vector<std::uint8_t>(bye.begin(),
                                              bye.begin() + split));
  EXPECT_EQ(dispatcher.buffered(), 0u);  // reset for reuse

  protocol::FrameDecoder worker;
  worker.feed(suffix.data(), suffix.size());
  worker.feed(bye.data() + split, bye.size() - split);
  auto result = worker.next();
  ASSERT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kFrame);
  EXPECT_EQ(result.frame.type, protocol::FrameType::kBye);
}

TEST(FrameDecoder, SetLimitAppliesToTheNextLengthPrefix) {
  const std::vector<std::uint8_t> hello =
      protocol::encode(protocol::make_frame(sample_hello()));
  const auto payload_bytes = static_cast<std::uint32_t>(hello.size() - 4);

  protocol::FrameDecoder decoder;
  decoder.set_limit(payload_bytes - 1);
  decoder.feed(hello.data(), hello.size());
  auto rejected = decoder.next();
  ASSERT_EQ(rejected.kind, protocol::FrameDecoder::Result::Kind::kError);
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);

  // A pooled decoder re-limited and reset accepts the same frame.
  decoder.reset();
  decoder.set_limit(payload_bytes);
  decoder.feed(hello.data(), hello.size());
  EXPECT_EQ(decoder.next().kind, protocol::FrameDecoder::Result::Kind::kFrame);
}

TEST(FrameDecoder, ResetDiscardsAPartialFrame) {
  const std::vector<std::uint8_t> hello =
      protocol::encode(protocol::make_frame(sample_hello()));
  protocol::FrameDecoder decoder;
  decoder.feed(hello.data(), hello.size() / 2);
  EXPECT_EQ(decoder.next().kind,
            protocol::FrameDecoder::Result::Kind::kNeedMore);
  decoder.reset();
  EXPECT_EQ(decoder.buffered(), 0u);
  // Without reset the second half would be misread as a new frame's
  // length prefix; after it, a whole frame decodes cleanly.
  decoder.feed(hello.data(), hello.size());
  auto result = decoder.next();
  ASSERT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kFrame);
  EXPECT_EQ(result.frame.as<protocol::Hello>().user_id, 42u);
}

// ---------------------------------------------------------------------------
// Malformed-input corpus.  Each case is one mutation class applied to a
// valid frame; the expected outcome is a specific error code (or, for
// mid-frame truncation, kNeedMore — awaiting bytes that never arrive is the
// correct stance until the peer hangs up).
// ---------------------------------------------------------------------------

namespace {

struct CorpusCase {
  const char* name;
  /// Builds the malformed byte stream from a valid encoded frame.
  std::vector<std::uint8_t> (*mutate)(std::vector<std::uint8_t> valid);
  /// kOk means "decoder must just wait for more bytes" (kNeedMore).
  StatusCode expected;
};

std::vector<std::uint8_t> set_length(std::vector<std::uint8_t> bytes,
                                     std::uint32_t length) {
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((length >> (8 * i)) & 0xFFu);
  }
  return bytes;
}

const CorpusCase kCorpus[] = {
    {"oversized_length_prefix",
     [](std::vector<std::uint8_t> valid) {
       // 4 GiB claim: must be rejected before any buffering.
       return set_length(std::move(valid), 0xFFFFFFFFu);
     },
     StatusCode::kInvalidArgument},
    {"length_just_over_limit",
     [](std::vector<std::uint8_t> valid) {
       return set_length(std::move(valid), protocol::kMaxFrameBytes + 1);
     },
     StatusCode::kInvalidArgument},
    {"length_below_minimum",
     [](std::vector<std::uint8_t> valid) {
       return set_length(std::move(valid), 16);  // < header + checksum
     },
     StatusCode::kDataLoss},
    {"zero_length",
     [](std::vector<std::uint8_t> valid) {
       return set_length(std::move(valid), 0);
     },
     StatusCode::kDataLoss},
    {"payload_truncated_short_of_checksum",
     [](std::vector<std::uint8_t> valid) {
       // Length claims the full payload but only part arrives: the decoder
       // must wait (kNeedMore), never decode a partial frame.
       valid.resize(valid.size() - 5);
       return valid;
     },
     StatusCode::kOk},
    {"bad_magic",
     [](std::vector<std::uint8_t> valid) {
       // Rewrite magic and re-seal so only the magic check can object.
       std::vector<std::uint8_t> payload(valid.begin() + 4, valid.end());
       payload.resize(payload.size() - 8);  // strip trailer
       payload[0] ^= 0xFF;
       wire::seal(payload);
       std::vector<std::uint8_t> out(valid.begin(), valid.begin() + 4);
       out.insert(out.end(), payload.begin(), payload.end());
       return out;
     },
     StatusCode::kInvalidArgument},
    {"unsupported_version",
     [](std::vector<std::uint8_t> valid) {
       std::vector<std::uint8_t> payload(valid.begin() + 4, valid.end());
       payload.resize(payload.size() - 8);
       payload[4] = 0x7F;  // version LSB
       wire::seal(payload);
       std::vector<std::uint8_t> out(valid.begin(), valid.begin() + 4);
       out.insert(out.end(), payload.begin(), payload.end());
       return out;
     },
     StatusCode::kInvalidArgument},
    {"unknown_frame_type",
     [](std::vector<std::uint8_t> valid) {
       std::vector<std::uint8_t> payload(valid.begin() + 4, valid.end());
       payload.resize(payload.size() - 8);
       payload[8] = 0xEE;  // type byte
       wire::seal(payload);
       std::vector<std::uint8_t> out(valid.begin(), valid.begin() + 4);
       out.insert(out.end(), payload.begin(), payload.end());
       return out;
     },
     StatusCode::kInvalidArgument},
    {"truncated_body_resealed",
     [](std::vector<std::uint8_t> valid) {
       // Drop the body's last byte and re-seal: checksum passes, the body
       // decoder must still notice the short body.
       std::vector<std::uint8_t> payload(valid.begin() + 4, valid.end());
       payload.resize(payload.size() - 8);
       payload.pop_back();
       wire::seal(payload);
       std::vector<std::uint8_t> out;
       const auto length = static_cast<std::uint32_t>(payload.size());
       for (int i = 0; i < 4; ++i) {
         out.push_back(static_cast<std::uint8_t>((length >> (8 * i)) & 0xFFu));
       }
       out.insert(out.end(), payload.begin(), payload.end());
       return out;
     },
     StatusCode::kDataLoss},
    {"trailing_garbage_resealed",
     [](std::vector<std::uint8_t> valid) {
       std::vector<std::uint8_t> payload(valid.begin() + 4, valid.end());
       payload.resize(payload.size() - 8);
       payload.push_back(0xAA);
       wire::seal(payload);
       std::vector<std::uint8_t> out;
       const auto length = static_cast<std::uint32_t>(payload.size());
       for (int i = 0; i < 4; ++i) {
         out.push_back(static_cast<std::uint8_t>((length >> (8 * i)) & 0xFFu));
       }
       out.insert(out.end(), payload.begin(), payload.end());
       return out;
     },
     StatusCode::kInvalidArgument},
};

}  // namespace

TEST(MalformedCorpus, EveryCaseSurfacesTheExpectedStatus) {
  for (const CorpusCase& test_case : kCorpus) {
    const std::vector<std::uint8_t> valid =
        protocol::encode(protocol::make_frame(sample_hello()));
    const std::vector<std::uint8_t> mutated = test_case.mutate(valid);

    protocol::FrameDecoder decoder;
    decoder.feed(mutated.data(), mutated.size());
    const auto result = decoder.next();
    if (test_case.expected == StatusCode::kOk) {
      EXPECT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kNeedMore)
          << test_case.name;
    } else {
      ASSERT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kError)
          << test_case.name;
      EXPECT_EQ(result.status.code(), test_case.expected) << test_case.name;
    }
  }
}

TEST(MalformedCorpus, EveryPayloadBitFlipIsDetected) {
  // Flip every bit of the sealed payload in turn.  Most flips break the
  // checksum (kDataLoss); flips that happen to hit the length-independent
  // header fields after a still-valid checksum are impossible (FNV covers
  // the whole payload), so *every* flip must be rejected.
  const std::vector<std::uint8_t> framed =
      protocol::encode(protocol::make_frame(sample_hello()));
  for (std::size_t i = 4; i < framed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> copy = framed;
      copy[i] ^= static_cast<std::uint8_t>(1u << bit);
      protocol::FrameDecoder decoder;
      decoder.feed(copy.data(), copy.size());
      const auto result = decoder.next();
      EXPECT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kError)
          << "byte " << i << " bit " << bit << " accepted";
    }
  }
}

// ---------------------------------------------------------------------------
// lpvs-wire/session v2 — the joint-ABR fields.  The version bump is append-
// only: v2 adds streaming state to REPORT and the granted rung to SCHEDULE.
// These tests pin the compat contract: v1 frames still decode (new fields
// defaulted), out-of-range versions are rejected, and a v2 frame whose new
// tail is truncated-but-resealed surfaces as kDataLoss.
// ---------------------------------------------------------------------------

namespace {

protocol::Report sample_v2_report() {
  protocol::Report report;
  report.slot = 11;
  report.battery_fraction = 0.48;
  report.observed_delta = 0.22;
  report.has_delta = 1;
  report.watching = 1;
  report.buffer_s = 37.5;
  report.throughput_mbps = 18.25;
  return report;
}

protocol::Schedule sample_v2_schedule() {
  protocol::Schedule schedule;
  schedule.slot = 11;
  schedule.transform = 1;
  schedule.rung = 0;
  schedule.expected_gamma = 0.29;
  schedule.objective = 451.5;
  schedule.selected_count = 3;
  schedule.cluster_devices = 4;
  schedule.bitrate_rung = 4;
  schedule.bitrate_mbps = 5.0;
  return schedule;
}

/// Hand-builds a sealed payload claiming `version`, with `body` written by
/// the caller — the only way to produce genuine v1 bytes now that the
/// encoder always emits kVersion.
template <typename BodyWriter>
std::vector<std::uint8_t> sealed_payload(std::uint32_t version,
                                         std::uint8_t type,
                                         BodyWriter&& body) {
  std::vector<std::uint8_t> payload;
  wire::Writer w(&payload);
  w.u32(protocol::kMagic);
  w.u32(version);
  w.u8(type);
  body(w);
  wire::seal(payload);
  return payload;
}

/// Rewrites a valid frame's version field and re-seals, so only the
/// version check can object.
std::vector<std::uint8_t> with_version(const std::vector<std::uint8_t>& framed,
                                       std::uint32_t version) {
  std::vector<std::uint8_t> payload = payload_of(framed);
  payload.resize(payload.size() - 8);  // strip seal
  for (int i = 0; i < 4; ++i) {
    payload[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>((version >> (8 * i)) & 0xFFu);
  }
  wire::seal(payload);
  return payload;
}

}  // namespace

TEST(SessionProtocolV2, ReportAndScheduleFieldsSurviveRoundTrip) {
  const protocol::Report report = sample_v2_report();
  auto decoded_report =
      protocol::decode_payload(payload_of(protocol::encode(
          protocol::make_frame(report))));
  ASSERT_TRUE(decoded_report.ok()) << decoded_report.status().to_string();
  const auto& r = decoded_report->as<protocol::Report>();
  EXPECT_DOUBLE_EQ(r.buffer_s, report.buffer_s);
  EXPECT_DOUBLE_EQ(r.throughput_mbps, report.throughput_mbps);

  const protocol::Schedule schedule = sample_v2_schedule();
  auto decoded_schedule =
      protocol::decode_payload(payload_of(protocol::encode(
          protocol::make_frame(schedule))));
  ASSERT_TRUE(decoded_schedule.ok()) << decoded_schedule.status().to_string();
  const auto& s = decoded_schedule->as<protocol::Schedule>();
  EXPECT_EQ(s.bitrate_rung, schedule.bitrate_rung);
  EXPECT_DOUBLE_EQ(s.bitrate_mbps, schedule.bitrate_mbps);
}

TEST(SessionProtocolV2, V1ReportDecodesWithDefaultedStreamingFields) {
  // Genuine v1 bytes: version 1, body stops at `watching`.  A v2 decoder
  // must accept it and leave the streaming fields at their defaults —
  // 0 throughput reads as "unknown" downstream.
  const std::vector<std::uint8_t> payload = sealed_payload(
      1, static_cast<std::uint8_t>(protocol::FrameType::kReport),
      [](wire::Writer& w) {
        w.u32(9);        // slot
        w.f64(0.73);     // battery_fraction
        w.f64(0.18);     // observed_delta
        w.u8(1);         // has_delta
        w.u8(1);         // watching
      });
  auto decoded = protocol::decode_payload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->type, protocol::FrameType::kReport);
  const auto& report = decoded->as<protocol::Report>();
  EXPECT_EQ(report.slot, 9u);
  EXPECT_DOUBLE_EQ(report.battery_fraction, 0.73);
  EXPECT_DOUBLE_EQ(report.buffer_s, 0.0);
  EXPECT_DOUBLE_EQ(report.throughput_mbps, 0.0);
}

TEST(SessionProtocolV2, V1ScheduleDecodesAsUngoverned) {
  const std::vector<std::uint8_t> payload = sealed_payload(
      1, static_cast<std::uint8_t>(protocol::FrameType::kSchedule),
      [](wire::Writer& w) {
        w.u32(9);        // slot
        w.u8(1);         // transform
        w.u8(2);         // rung
        w.f64(0.31);     // expected_gamma
        w.f64(-12.5);    // objective
        w.u32(5);        // selected_count
        w.u32(8);        // cluster_devices
      });
  auto decoded = protocol::decode_payload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  const auto& schedule = decoded->as<protocol::Schedule>();
  EXPECT_EQ(schedule.rung, 2);
  EXPECT_EQ(schedule.bitrate_rung, 0);
  EXPECT_DOUBLE_EQ(schedule.bitrate_mbps, 0.0);  // "keep your current rate"
}

TEST(SessionProtocolV2, VersionsOutsideTheAcceptedWindowAreRejected) {
  const std::vector<std::uint8_t> framed =
      protocol::encode(protocol::make_frame(sample_v2_report()));
  for (const std::uint32_t version : {0u, protocol::kVersion + 1}) {
    auto decoded = protocol::decode_payload(with_version(framed, version));
    ASSERT_FALSE(decoded.ok()) << "version " << version << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "version " << version;
  }
  // Both window edges still decode.  (Use a version-independent body: a
  // v2-length REPORT re-stamped v1 would correctly die on trailing bytes.)
  const std::vector<std::uint8_t> grant =
      protocol::encode(protocol::make_frame(protocol::Grant{5, 3, 100.0, 1.0}));
  EXPECT_TRUE(
      protocol::decode_payload(with_version(grant, protocol::kMinVersion))
          .ok());
  EXPECT_TRUE(
      protocol::decode_payload(with_version(grant, protocol::kVersion)).ok());
}

TEST(SessionProtocolV2, TruncatedV2TailResealedIsDataLoss) {
  // Drop 1..9 trailing body bytes from a v2 SCHEDULE (9 = the whole v2
  // tail: rung u8 + bitrate f64) and re-seal.  The checksum passes, the
  // frame still claims v2, so the body decoder must flag the short tail.
  const std::vector<std::uint8_t> framed =
      protocol::encode(protocol::make_frame(sample_v2_schedule()));
  for (std::size_t drop = 1; drop <= 9; ++drop) {
    std::vector<std::uint8_t> payload = payload_of(framed);
    payload.resize(payload.size() - 8);      // strip seal
    payload.resize(payload.size() - drop);   // truncate the v2 tail
    wire::seal(payload);
    auto decoded = protocol::decode_payload(payload);
    ASSERT_FALSE(decoded.ok()) << "drop " << drop << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "drop " << drop;
  }
}

TEST(SessionProtocolV2, EveryBitFlipOnV2FramesIsDetected) {
  // The v1 bit-flip sweep, extended over the frames that carry the new
  // fields: no flip anywhere in a sealed v2 REPORT or SCHEDULE payload may
  // decode.
  const std::vector<std::vector<std::uint8_t>> frames = {
      protocol::encode(protocol::make_frame(sample_v2_report())),
      protocol::encode(protocol::make_frame(sample_v2_schedule())),
  };
  for (const std::vector<std::uint8_t>& framed : frames) {
    for (std::size_t i = 4; i < framed.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> copy = framed;
        copy[i] ^= static_cast<std::uint8_t>(1u << bit);
        protocol::FrameDecoder decoder;
        decoder.feed(copy.data(), copy.size());
        const auto result = decoder.next();
        EXPECT_EQ(result.kind, protocol::FrameDecoder::Result::Kind::kError)
            << "byte " << i << " bit " << bit << " accepted";
      }
    }
  }
}

TEST(MalformedCorpus, RandomNoiseNeverDecodes) {
  // Deterministic pseudo-noise: whatever the length prefix claims, the
  // decoder must either wait for more bytes or reject — never return a
  // frame.
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint8_t> noise(64 + round * 3);
    for (std::uint8_t& byte : noise) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      byte = static_cast<std::uint8_t>(state >> 56);
    }
    protocol::FrameDecoder decoder;
    decoder.feed(noise.data(), noise.size());
    const auto result = decoder.next();
    EXPECT_NE(result.kind, protocol::FrameDecoder::Result::Kind::kFrame)
        << "round " << round;
  }
}

// --- Field ranges: a number the receiver cannot use (the scheduler for
// --- HELLO/REPORT, the client's playout and battery for SCHEDULE/GRANT)
// --- is rejected at decode, so it takes the malformed-frame path.

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Round-trips `base` with one field set to each value: `bad` values must
/// fail to decode with kDataLoss, `good` values must decode unchanged.
template <typename Body, typename Field>
void expect_field_range(Body base, Field Body::*field,
                        std::initializer_list<double> bad,
                        std::initializer_list<double> good) {
  for (const double value : bad) {
    Body body = base;
    body.*field = value;
    auto decoded = protocol::decode_payload(
        payload_of(protocol::encode(protocol::make_frame(body))));
    ASSERT_FALSE(decoded.ok()) << "accepted " << value;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << value;
  }
  for (const double value : good) {
    Body body = base;
    body.*field = value;
    auto decoded = protocol::decode_payload(
        payload_of(protocol::encode(protocol::make_frame(body))));
    ASSERT_TRUE(decoded.ok()) << value << ": "
                              << decoded.status().to_string();
    EXPECT_EQ(decoded->template as<Body>().*field, value);
  }
}

}  // namespace

TEST(SessionProtocolRanges, HelloBatteryCapacityPositiveAndFinite) {
  expect_field_range(sample_hello(), &protocol::Hello::battery_capacity_mwh,
                     {kNan, kInf, -kInf, 0.0, -1.0}, {1e-9, 13000.0});
}

TEST(SessionProtocolRanges, HelloBitratePositiveAndFinite) {
  expect_field_range(sample_hello(), &protocol::Hello::bitrate_mbps,
                     {kNan, kInf, -kInf, 0.0, -3.0}, {0.5, 6.0});
}

TEST(SessionProtocolRanges, ReportBatteryFractionInUnitInterval) {
  expect_field_range(sample_v2_report(), &protocol::Report::battery_fraction,
                     {kNan, kInf, -kInf, -1e-12, 1.0 + 1e-12, 80.0},
                     {0.0, 0.2, 1.0});
}

TEST(SessionProtocolRanges, ReportObservedDeltaFinite) {
  expect_field_range(sample_v2_report(), &protocol::Report::observed_delta,
                     {kNan, kInf, -kInf}, {-0.05, 0.0, 0.49});
}

TEST(SessionProtocolRanges, ReportBufferFinite) {
  expect_field_range(sample_v2_report(), &protocol::Report::buffer_s,
                     {kNan, kInf, -kInf}, {0.0, 37.5});
}

TEST(SessionProtocolRanges, ReportThroughputFinite) {
  expect_field_range(sample_v2_report(), &protocol::Report::throughput_mbps,
                     {kNan, kInf, -kInf}, {0.0, 18.25});
}

TEST(SessionProtocolRanges, ScheduleBitrateNonNegativeAndFinite) {
  expect_field_range(sample_v2_schedule(), &protocol::Schedule::bitrate_mbps,
                     {kNan, kInf, -kInf, -1e-12, -5.0}, {0.0, 5.0});
}

TEST(SessionProtocolRanges, GrantChunkSecondsPositiveAndFinite) {
  expect_field_range(protocol::Grant{5, 3, 100.0, 0.69},
                     &protocol::Grant::chunk_seconds,
                     {kNan, kInf, -kInf, 0.0, -10.0}, {1e-9, 100.0});
}

TEST(SessionProtocolRanges, GrantPowerScaleInUnitInterval) {
  expect_field_range(protocol::Grant{5, 3, 100.0, 0.69},
                     &protocol::Grant::power_scale,
                     {kNan, kInf, -kInf, -1e-12, 1.0 + 1e-12, 2.0},
                     {0.0, 0.69, 1.0});
}

TEST(SessionProtocolRanges, GrantChunksAtMostTheGrantBound) {
  // The client plays every granted chunk, so an unbounded count would
  // hold it for minutes.
  const std::uint32_t bad[] = {protocol::kMaxGrantChunks + 1,
                               std::numeric_limits<std::uint32_t>::max()};
  for (const std::uint32_t chunks : bad) {
    auto decoded = protocol::decode_payload(payload_of(
        protocol::encode(protocol::make_frame(
            protocol::Grant{5, chunks, 100.0, 0.69}))));
    ASSERT_FALSE(decoded.ok()) << "accepted " << chunks;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << chunks;
  }
  for (const std::uint32_t chunks : {0u, 3u, protocol::kMaxGrantChunks}) {
    auto decoded = protocol::decode_payload(payload_of(
        protocol::encode(protocol::make_frame(
            protocol::Grant{5, chunks, 100.0, 0.69}))));
    ASSERT_TRUE(decoded.ok()) << chunks << ": "
                              << decoded.status().to_string();
    EXPECT_EQ(decoded->as<protocol::Grant>().chunks, chunks);
  }
}

TEST(SessionProtocolRanges, DaemonRefusesChunksItsClientsWouldReject) {
  // A slot the GRANT decoder would reject never gets served: start()
  // refuses the config before binding anything.
  const lpvs::survey::AnxietyModel anxiety =
      lpvs::survey::AnxietyModel::reference();
  const lpvs::core::LpvsScheduler scheduler;
  for (const long chunks :
       {static_cast<long>(protocol::kMaxGrantChunks) + 1, -1L}) {
    lpvs::server::ServerConfig config;
    config.slot.chunks_per_slot = static_cast<int>(chunks);
    lpvs::server::EdgeServerDaemon daemon(config, scheduler,
                                          lpvs::core::RunContext(anxiety));
    const lpvs::common::Status status = daemon.start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << chunks;
  }
}
