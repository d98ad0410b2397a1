#include "lpvs/media/video.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace lpvs::media {

std::string to_string(Genre genre) {
  switch (genre) {
    case Genre::kDarkGame:
      return "dark-game";
    case Genre::kBrightGame:
      return "bright-game";
    case Genre::kIrlChat:
      return "irl-chat";
    case Genre::kSports:
      return "sports";
    case Genre::kMusic:
      return "music";
    case Genre::kMovie:
      return "movie";
  }
  return "unknown";
}

common::Seconds Video::duration() const {
  double total = 0.0;
  for (const VideoChunk& chunk : chunks) total += chunk.duration.value;
  return {total};
}

const ContentGenerator::GenreProfile& ContentGenerator::profile(Genre genre) {
  static const std::array<GenreProfile, kGenreCount> kProfiles = {{
      // luminance mean/spread, r/g/b bias, scene persistence
      {0.22, 0.10, 1.05, 0.95, 1.10, 0.85},  // dark game
      {0.58, 0.12, 1.00, 1.05, 0.95, 0.80},  // bright game
      {0.45, 0.08, 1.15, 1.00, 0.85, 0.92},  // irl chat (skin tones)
      {0.62, 0.10, 0.95, 1.10, 0.90, 0.75},  // sports (green field)
      {0.35, 0.15, 1.00, 0.85, 1.30, 0.70},  // music (stage blues)
      {0.30, 0.12, 1.00, 1.00, 1.00, 0.90},  // movie
  }};
  return kProfiles[static_cast<std::size_t>(genre)];
}

Video ContentGenerator::generate(common::VideoId id, Genre genre,
                                 int chunk_count, double bitrate_mbps,
                                 common::Seconds chunk_duration) {
  Video video;
  generate_into(video, id, genre, chunk_count, bitrate_mbps, chunk_duration);
  return video;
}

void ContentGenerator::generate_into(Video& video, common::VideoId id,
                                     Genre genre, int chunk_count,
                                     double bitrate_mbps,
                                     common::Seconds chunk_duration) {
  assert(chunk_count >= 0);
  const GenreProfile& p = profile(genre);
  video.id = id;
  video.genre = genre;
  video.bitrate_mbps = bitrate_mbps;
  video.chunks.clear();
  video.chunks.reserve(static_cast<std::size_t>(chunk_count));

  // AR(1) walk of the scene luminance around the genre mean.
  double luminance = rng_.truncated_normal(p.luminance_mean,
                                           p.luminance_spread, 0.02, 0.98);
  const double innovation_std =
      p.luminance_spread *
      std::sqrt(1.0 - p.scene_persistence * p.scene_persistence);
  for (int k = 0; k < chunk_count; ++k) {
    const double innovation = rng_.normal(0.0, innovation_std);
    luminance = p.luminance_mean +
                p.scene_persistence * (luminance - p.luminance_mean) +
                innovation;
    luminance = std::clamp(luminance, 0.02, 0.98);

    VideoChunk chunk;
    chunk.id = common::ChunkId{static_cast<std::uint32_t>(k)};
    chunk.duration = chunk_duration;
    chunk.bitrate_mbps = bitrate_mbps;
    display::FrameStats stats;
    stats.mean_luminance = luminance;
    // Channel means follow the genre's color bias with small chunk noise.
    const double jitter = 0.04;
    stats.mean_r = luminance * p.r_bias + rng_.normal(0.0, jitter);
    stats.mean_g = luminance * p.g_bias + rng_.normal(0.0, jitter);
    stats.mean_b = luminance * p.b_bias + rng_.normal(0.0, jitter);
    stats.peak_luminance = luminance + rng_.uniform(0.15, 0.35);
    chunk.stats = stats.clamped();
    video.chunks.push_back(chunk);
  }
}

common::Milliwatts PowerRateEstimator::rate(const display::DisplaySpec& spec,
                                            const VideoChunk& chunk) const {
  return model_.playback_power(spec, chunk.stats, chunk.bitrate_mbps);
}

}  // namespace lpvs::media
