// Tests for the media module: genre-faithful content synthesis and the
// power-rate estimation p_{n,m}(kappa).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "lpvs/common/stats.hpp"
#include "lpvs/media/video.hpp"

namespace lpvs::media {
namespace {

Video make_video(Genre genre, int chunks = 60, std::uint64_t seed = 1,
                 double bitrate = 3.0) {
  ContentGenerator generator(seed);
  return generator.generate(common::VideoId{1}, genre, chunks, bitrate);
}

display::DisplaySpec oled_spec() {
  return {display::DisplayType::kOled, 6.1, 1080, 2340, 700.0, 0.8};
}

TEST(ContentGenerator, ProducesRequestedChunks) {
  const Video video = make_video(Genre::kIrlChat, 30);
  EXPECT_EQ(video.chunks.size(), 30u);
  EXPECT_EQ(video.genre, Genre::kIrlChat);
  for (std::size_t k = 0; k < video.chunks.size(); ++k) {
    EXPECT_EQ(video.chunks[k].id.value, static_cast<std::uint32_t>(k));
  }
}

TEST(ContentGenerator, ZeroChunksIsEmptyVideo) {
  const Video video = make_video(Genre::kMovie, 0);
  EXPECT_TRUE(video.chunks.empty());
  EXPECT_DOUBLE_EQ(video.duration().value, 0.0);
}

TEST(ContentGenerator, DeterministicPerSeed) {
  const Video a = make_video(Genre::kDarkGame, 40, 9);
  const Video b = make_video(Genre::kDarkGame, 40, 9);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t k = 0; k < a.chunks.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.chunks[k].stats.mean_luminance,
                     b.chunks[k].stats.mean_luminance);
    EXPECT_DOUBLE_EQ(a.chunks[k].stats.mean_b, b.chunks[k].stats.mean_b);
  }
}

TEST(ContentGenerator, DifferentSeedsDiffer) {
  const Video a = make_video(Genre::kDarkGame, 40, 1);
  const Video b = make_video(Genre::kDarkGame, 40, 2);
  int identical = 0;
  for (std::size_t k = 0; k < a.chunks.size(); ++k) {
    if (a.chunks[k].stats.mean_luminance ==
        b.chunks[k].stats.mean_luminance) {
      ++identical;
    }
  }
  EXPECT_LT(identical, 5);
}

TEST(ContentGenerator, StatsAlwaysInRange) {
  for (int g = 0; g < kGenreCount; ++g) {
    const Video video = make_video(static_cast<Genre>(g), 200, 3);
    for (const VideoChunk& chunk : video.chunks) {
      const display::FrameStats& s = chunk.stats;
      EXPECT_GE(s.mean_luminance, 0.0);
      EXPECT_LE(s.mean_luminance, 1.0);
      EXPECT_GE(s.mean_r, 0.0);
      EXPECT_LE(s.mean_r, 1.0);
      EXPECT_GE(s.mean_g, 0.0);
      EXPECT_LE(s.mean_g, 1.0);
      EXPECT_GE(s.mean_b, 0.0);
      EXPECT_LE(s.mean_b, 1.0);
      EXPECT_GE(s.peak_luminance, s.mean_luminance);
      EXPECT_LE(s.peak_luminance, 1.0);
    }
  }
}

TEST(ContentGenerator, GenresHaveDistinctLuminance) {
  common::RunningStats dark;
  common::RunningStats bright;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const VideoChunk& c :
         make_video(Genre::kDarkGame, 100, seed).chunks) {
      dark.add(c.stats.mean_luminance);
    }
    for (const VideoChunk& c :
         make_video(Genre::kSports, 100, seed).chunks) {
      bright.add(c.stats.mean_luminance);
    }
  }
  EXPECT_LT(dark.mean(), 0.35);
  EXPECT_GT(bright.mean(), 0.5);
}

TEST(ContentGenerator, MusicGenreIsBlueHeavy) {
  common::RunningStats blue_ratio;
  for (const VideoChunk& c : make_video(Genre::kMusic, 200, 4).chunks) {
    if (c.stats.mean_g > 0.05) {
      blue_ratio.add(c.stats.mean_b / c.stats.mean_g);
    }
  }
  EXPECT_GT(blue_ratio.mean(), 1.2);
}

TEST(ContentGenerator, SceneCorrelationIsHigh) {
  // Consecutive chunks belong to the same scene most of the time: lag-1
  // autocorrelation of luminance must be clearly positive.
  const Video video = make_video(Genre::kMovie, 500, 5);
  std::vector<double> now;
  std::vector<double> next;
  for (std::size_t k = 0; k + 1 < video.chunks.size(); ++k) {
    now.push_back(video.chunks[k].stats.mean_luminance);
    next.push_back(video.chunks[k + 1].stats.mean_luminance);
  }
  EXPECT_GT(common::pearson(now, next), 0.5);
}

TEST(Video, DurationSumsChunks) {
  const Video video = make_video(Genre::kIrlChat, 30);
  EXPECT_DOUBLE_EQ(video.duration().value, 300.0);  // 30 x 10 s = one slot
}

TEST(PowerRate, PositiveForAllGenres) {
  const PowerRateEstimator estimator;
  for (int g = 0; g < kGenreCount; ++g) {
    const Video video = make_video(static_cast<Genre>(g), 30, 6);
    for (const VideoChunk& chunk : video.chunks) {
      EXPECT_GT(estimator.rate(oled_spec(), chunk).value, 0.0);
    }
  }
}

TEST(PowerRate, FluctuatesWithContentOnOled) {
  // SIV-B: "power rate may fluctuate up and down along with the played
  // chunks" — on OLED the variation comes from content.
  const PowerRateEstimator estimator;
  const Video video = make_video(Genre::kMovie, 100, 7);
  common::RunningStats stats;
  for (const VideoChunk& chunk : video.chunks) {
    stats.add(estimator.rate(oled_spec(), chunk).value);
  }
  EXPECT_GT(stats.stddev(), 5.0);
}

TEST(PowerRate, DarkContentCheaperOnOled) {
  const PowerRateEstimator estimator;
  common::RunningStats dark;
  common::RunningStats bright;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Video dark_video = make_video(Genre::kDarkGame, 50, seed);
    for (const VideoChunk& chunk : dark_video.chunks) {
      dark.add(estimator.rate(oled_spec(), chunk).value);
    }
    const Video bright_video = make_video(Genre::kSports, 50, seed);
    for (const VideoChunk& chunk : bright_video.chunks) {
      bright.add(estimator.rate(oled_spec(), chunk).value);
    }
  }
  EXPECT_LT(dark.mean(), bright.mean());
}

TEST(PowerRate, HigherBitrateCostsMore) {
  const PowerRateEstimator estimator;
  const Video low = make_video(Genre::kIrlChat, 30, 8, 1.0);
  const Video high = make_video(Genre::kIrlChat, 30, 8, 8.0);
  // Same seed, same content stats; only the bitrate differs.
  const double p_low = estimator.rate(oled_spec(), low.chunks[0]).value;
  const double p_high = estimator.rate(oled_spec(), high.chunks[0]).value;
  EXPECT_GT(p_high, p_low);
}

TEST(GenreNames, AllDistinct) {
  std::set<std::string> names;
  for (int g = 0; g < kGenreCount; ++g) {
    names.insert(to_string(static_cast<Genre>(g)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kGenreCount));
  EXPECT_EQ(to_string(Genre::kIrlChat), "irl-chat");
}

/// Genre profiles sweep: every genre's mean luminance must land near its
/// configured profile mean.
class GenreSweep : public ::testing::TestWithParam<int> {};

TEST_P(GenreSweep, LuminanceTracksProfile) {
  const auto genre = static_cast<Genre>(GetParam());
  const auto& profile = ContentGenerator::profile(genre);
  common::RunningStats stats;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const VideoChunk& c : make_video(genre, 150, seed).chunks) {
      stats.add(c.stats.mean_luminance);
    }
  }
  EXPECT_NEAR(stats.mean(), profile.luminance_mean,
              2.5 * profile.luminance_spread);
}

INSTANTIATE_TEST_SUITE_P(AllGenres, GenreSweep,
                         ::testing::Range(0, kGenreCount));

}  // namespace
}  // namespace lpvs::media
