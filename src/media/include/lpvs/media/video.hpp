// Video and chunk abstractions (SIV-A, SIV-B).
//
// A video is a sequence of fixed-length chunks; each chunk carries the
// content statistics (display::FrameStats) that the power models need plus
// the stream bitrate.  The paper streams live Twitch channels, so "video"
// here usually means a live channel's rolling chunk window; the generator
// synthesizes chunk statistics per genre with slow temporal correlation
// (scenes) so consecutive chunks look alike, as real content does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/common/units.hpp"
#include "lpvs/display/display.hpp"

namespace lpvs::media {

/// Broad content classes with distinct luminance/color signatures; the
/// spread between them is what makes per-chunk power rates fluctuate
/// "up and down along with the played chunks" (SIV-B).
enum class Genre : std::uint8_t {
  kDarkGame,    ///< dim scenes, saturated highlights (e.g. dungeon crawlers)
  kBrightGame,  ///< vivid, high-luminance esports titles
  kIrlChat,     ///< face-cam streams: skin tones, indoor lighting
  kSports,      ///< bright field, high motion
  kMusic,       ///< stage lighting, strong blues/purples
  kMovie,       ///< cinematic, letter-boxed, mid-low luminance
};
inline constexpr int kGenreCount = 6;

std::string to_string(Genre genre);

/// One streamable chunk.
struct VideoChunk {
  common::ChunkId id;
  display::FrameStats stats;
  double bitrate_mbps = 3.0;
  common::Seconds duration{10.0};  ///< Delta_kappa in the paper
};

/// A video (or live channel's chunk window).
struct Video {
  common::VideoId id;
  Genre genre = Genre::kIrlChat;
  double bitrate_mbps = 3.0;
  std::vector<VideoChunk> chunks;

  /// Total play time of all chunks.
  common::Seconds duration() const;
};

/// Synthesizes genre-faithful chunk statistics with scene-level temporal
/// correlation (AR(1) around the genre mean).
class ContentGenerator {
 public:
  struct GenreProfile {
    double luminance_mean;
    double luminance_spread;
    double r_bias;  ///< channel mean relative to luminance
    double g_bias;
    double b_bias;
    double scene_persistence;  ///< AR(1) coefficient in [0, 1)
  };

  explicit ContentGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Generates a video of `chunk_count` chunks at `bitrate_mbps`.
  Video generate(common::VideoId id, Genre genre, int chunk_count,
                 double bitrate_mbps,
                 common::Seconds chunk_duration = common::Seconds{10.0});

  /// Same generation into a caller-owned Video, reusing its chunk buffer —
  /// the serving hot path prices one video per (member, slot) and would
  /// otherwise pay a chunk-vector allocation each time.  Bit-identical to
  /// generate() for the same seed and arguments.
  void generate_into(Video& out, common::VideoId id, Genre genre,
                     int chunk_count, double bitrate_mbps,
                     common::Seconds chunk_duration = common::Seconds{10.0});

  /// Genre parameters used by the generator (exposed for tests).
  static const GenreProfile& profile(Genre genre);

 private:
  common::Rng rng_;
};

/// The per-chunk power rate p_{n,m}(kappa) of SIV-B: the power the n-th
/// device draws while playing chunk kappa of video m, estimated from the
/// device's display spec and the chunk's content statistics using the
/// literature power models ([17] for OLED, [20] for LCD) via
/// display::DevicePowerModel.
class PowerRateEstimator {
 public:
  explicit PowerRateEstimator(display::DevicePowerModel model = {})
      : model_(model) {}

  /// Power rate for one chunk on one device.
  common::Milliwatts rate(const display::DisplaySpec& spec,
                          const VideoChunk& chunk) const;

  const display::DevicePowerModel& model() const { return model_; }

 private:
  display::DevicePowerModel model_;
};

}  // namespace lpvs::media
