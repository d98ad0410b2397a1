// Tests for the transform module: backlight scaling, OLED color transform,
// the realized gamma bands, the Table I registry, and edge resource costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lpvs/common/stats.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::transform {
namespace {

display::DisplaySpec lcd_spec() {
  return {display::DisplayType::kLcd, 6.1, 1080, 2340, 500.0, 0.8};
}

display::DisplaySpec oled_spec() {
  return {display::DisplayType::kOled, 6.1, 1080, 2340, 700.0, 0.8};
}

display::FrameStats scene(double luminance, double peak) {
  display::FrameStats stats;
  stats.mean_luminance = luminance;
  stats.mean_r = luminance;
  stats.mean_g = luminance;
  stats.mean_b = luminance;
  stats.peak_luminance = peak;
  return stats;
}

TEST(BacklightScalingTest, SavesPowerOnTypicalContent) {
  const BacklightScaling transform{display::LcdPowerModel{},
                                   QualityBudget{}};
  const ChunkTransform result = transform.apply(lcd_spec(), scene(0.4, 0.6));
  EXPECT_LT(result.display_power_after.value,
            result.display_power_before.value);
  EXPECT_GT(result.display_saving_fraction(), 0.1);
  EXPECT_LT(result.backlight_level, 0.8);
}

TEST(BacklightScalingTest, NeverIncreasesPower) {
  const BacklightScaling transform{display::LcdPowerModel{},
                                   QualityBudget{}};
  for (double peak = 0.1; peak <= 1.0; peak += 0.1) {
    const ChunkTransform result =
        transform.apply(lcd_spec(), scene(peak * 0.6, peak));
    EXPECT_LE(result.display_power_after.value,
              result.display_power_before.value + 1e-9);
  }
}

TEST(BacklightScalingTest, RespectsBacklightFloor) {
  QualityBudget budget;
  budget.min_backlight_fraction = 0.5;
  const BacklightScaling transform{display::LcdPowerModel{}, budget};
  // Nearly black content still cannot dim below 50% of the user setting.
  const ChunkTransform result =
      transform.apply(lcd_spec(), scene(0.02, 0.05));
  EXPECT_GE(result.backlight_level, 0.5 * 0.8 - 1e-9);
}

TEST(BacklightScalingTest, BrightContentSavesLittle) {
  const BacklightScaling transform{display::LcdPowerModel{},
                                   QualityBudget{}};
  const ChunkTransform dark = transform.apply(lcd_spec(), scene(0.2, 0.35));
  const ChunkTransform bright =
      transform.apply(lcd_spec(), scene(0.7, 0.98));
  EXPECT_GT(dark.display_saving_fraction(),
            bright.display_saving_fraction());
}

TEST(BacklightScalingTest, DistortionBoundedAndMonotone) {
  QualityBudget mild;
  mild.peak_coverage = 0.95;
  QualityBudget aggressive;
  aggressive.peak_coverage = 0.55;
  const BacklightScaling soft{display::LcdPowerModel{}, mild};
  const BacklightScaling hard{display::LcdPowerModel{}, aggressive};
  const display::FrameStats content = scene(0.5, 0.8);
  const double d_soft = soft.apply(lcd_spec(), content).distortion;
  const double d_hard = hard.apply(lcd_spec(), content).distortion;
  EXPECT_GE(d_soft, 0.0);
  EXPECT_LE(d_hard, 1.0);
  EXPECT_LE(d_soft, d_hard + 1e-12);
}

TEST(OledTransformTest, ReducesPowerAndChannels) {
  const OledColorTransform transform{display::OledPowerModel{},
                                     QualityBudget{}};
  const ChunkTransform result = transform.apply(oled_spec(), scene(0.5, 0.8));
  EXPECT_LT(result.display_power_after.value,
            result.display_power_before.value);
  EXPECT_LT(result.transformed_stats.mean_b, 0.5);
  EXPECT_LT(result.transformed_stats.mean_r, 0.5);
  EXPECT_LE(result.transformed_stats.mean_g, 0.5);
}

TEST(OledTransformTest, BlueAttenuatedMostRedInBetween) {
  const OledColorTransform transform{display::OledPowerModel{},
                                     QualityBudget{}};
  const ChunkTransform result = transform.apply(oled_spec(), scene(0.6, 0.9));
  const auto& t = result.transformed_stats;
  EXPECT_LT(t.mean_b, t.mean_r);  // blue scaled hardest
  EXPECT_LT(t.mean_r, t.mean_g);  // red between blue and green
}

TEST(OledTransformTest, DistortionGrowsWithDarkening) {
  QualityBudget mild;
  mild.darken = 0.95;
  mild.blue_scale = 0.9;
  QualityBudget aggressive;  // defaults are the aggressive calibration
  const OledColorTransform soft{display::OledPowerModel{}, mild};
  const OledColorTransform hard{display::OledPowerModel{}, aggressive};
  const display::FrameStats content = scene(0.5, 0.8);
  EXPECT_LT(soft.apply(oled_spec(), content).distortion,
            hard.apply(oled_spec(), content).distortion);
}

TEST(OledTransformTest, BlackFrameUnchanged) {
  const OledColorTransform transform{display::OledPowerModel{},
                                     QualityBudget{}};
  const ChunkTransform result =
      transform.apply(oled_spec(), scene(0.0, 0.02));
  EXPECT_NEAR(result.distortion, 0.0, 1e-9);
  EXPECT_NEAR(result.display_power_after.value,
              result.display_power_before.value, 1.0);
}

TEST(TransformEngine, DispatchesOnPanelType) {
  const TransformEngine engine;
  media::ContentGenerator generator(1);
  const media::Video video = generator.generate(
      common::VideoId{1}, media::Genre::kMovie, 10, 3.0);
  const ChunkTransform lcd =
      engine.transform_chunk(lcd_spec(), video.chunks[0]);
  const ChunkTransform oled =
      engine.transform_chunk(oled_spec(), video.chunks[0]);
  // LCD path reports a scaled backlight; OLED path keeps backlight at 1.
  EXPECT_LT(lcd.backlight_level, 1.0);
  EXPECT_DOUBLE_EQ(oled.backlight_level, 1.0);
}

/// Device-level gamma of one chunk: the transform's display saving over
/// the chunk's untransformed playback power under `model`, clamped to
/// [0, 1].
double chunk_gamma(const TransformEngine& engine,
                   const display::DevicePowerModel& model,
                   const display::DisplaySpec& spec,
                   const media::VideoChunk& chunk) {
  const ChunkTransform result = engine.transform_chunk(spec, chunk);
  const double total =
      model.playback_power(spec, chunk.stats, chunk.bitrate_mbps).value;
  if (total <= 0.0) return 0.0;
  const double saved = result.display_power_before.value -
                       result.display_power_after.value;
  return std::clamp(saved / total, 0.0, 1.0);
}

TEST(TransformEngine, ChunkGammaInUnitInterval) {
  const display::DevicePowerModel model;
  const TransformEngine engine(model);
  media::ContentGenerator generator(2);
  for (int g = 0; g < media::kGenreCount; ++g) {
    const media::Video video = generator.generate(
        common::VideoId{static_cast<std::uint32_t>(g)},
        static_cast<media::Genre>(g), 20, 3.0);
    for (const auto& chunk : video.chunks) {
      for (const auto& spec : {lcd_spec(), oled_spec()}) {
        const double gamma = chunk_gamma(engine, model, spec, chunk);
        EXPECT_GE(gamma, 0.0);
        EXPECT_LT(gamma, 1.0);
      }
    }
  }
}

TEST(TransformEngine, VideoGammaLandsInTable1Band) {
  // The realized device-level saving must fall in (or near) the Table I
  // average band [0.13, 0.49] that seeds the Bayesian prior.
  const TransformEngine engine;
  common::RunningStats gammas;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    media::ContentGenerator generator(seed);
    for (int g = 0; g < media::kGenreCount; ++g) {
      const media::Video video = generator.generate(
          common::VideoId{static_cast<std::uint32_t>(g)},
          static_cast<media::Genre>(g), 30, 3.0);
      gammas.add(engine.video_gamma(lcd_spec(), video));
      gammas.add(engine.video_gamma(oled_spec(), video));
    }
  }
  EXPECT_GT(gammas.mean(), 0.15);
  EXPECT_LT(gammas.mean(), 0.45);
  EXPECT_GT(gammas.min(), 0.0);
  EXPECT_LT(gammas.max(), 0.60);
}

TEST(TransformEngine, EmptyVideoGammaZero) {
  const TransformEngine engine;
  media::Video empty;
  EXPECT_DOUBLE_EQ(engine.video_gamma(lcd_spec(), empty), 0.0);
}

TEST(TransformEngine, VideoGammaIsEnergyWeightedChunkGamma) {
  const display::DevicePowerModel model;
  const TransformEngine engine(model);
  media::ContentGenerator generator(3);
  const media::Video video = generator.generate(
      common::VideoId{5}, media::Genre::kMovie, 15, 3.0);
  double saved = 0.0;
  double base = 0.0;
  for (const auto& chunk : video.chunks) {
    const double total =
        model.playback_power(oled_spec(), chunk.stats, chunk.bitrate_mbps)
            .value;
    base += total * chunk.duration.value;
    saved += chunk_gamma(engine, model, oled_spec(), chunk) * total *
             chunk.duration.value;
  }
  EXPECT_NEAR(engine.video_gamma(oled_spec(), video), saved / base, 1e-9);
}

/// Gamma as it was computed before the panel terms were hoisted: a full
/// ChunkTransform per chunk, its two display powers, and the playback
/// power priced from the spec.
double reference_video_gamma(const TransformEngine& engine,
                             const display::DevicePowerModel& model,
                             const display::DisplaySpec& spec,
                             const media::Video& video) {
  double saved_mwh = 0.0;
  double base_mwh = 0.0;
  for (const media::VideoChunk& chunk : video.chunks) {
    const double total =
        model.playback_power(spec, chunk.stats, chunk.bitrate_mbps).value;
    const ChunkTransform result = engine.transform_chunk(spec, chunk);
    const double saved = result.display_power_before.value -
                         result.display_power_after.value;
    base_mwh += total * chunk.duration.value;
    saved_mwh += saved * chunk.duration.value;
  }
  return base_mwh > 0.0 ? std::clamp(saved_mwh / base_mwh, 0.0, 1.0) : 0.0;
}

/// Chunks whose stats leave the valid ranges: negative channels, values
/// above 1, peak below mean.
media::Video out_of_range_video() {
  media::Video video;
  const display::FrameStats stats[] = {
      {-0.2, -0.1, 0.3, -0.05, 0.4},
      {1.3, 1.2, 1.5, 0.9, 1.8},
      {0.7, 0.6, 0.8, 0.7, 0.2},
      {0.5, 0.4, -0.3, 1.4, -0.1},
  };
  for (const display::FrameStats& s : stats) {
    media::VideoChunk chunk;
    chunk.stats = s;
    chunk.bitrate_mbps = 2.5;
    chunk.duration = common::Seconds{10.0};
    video.chunks.push_back(chunk);
  }
  return video;
}

TEST(TransformEngine, PricedVideoGammaIsBitIdentical) {
  // Both overloads must do the sums of the per-chunk ChunkTransform form in
  // the same order, from panel terms computed once, on every catalog panel.
  const display::DevicePowerModel model;
  const TransformEngine engine(model);
  const media::PowerRateEstimator estimator(model);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<media::Video> videos = {out_of_range_video()};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    media::ContentGenerator generator(seed);
    for (int g = 0; g < media::kGenreCount; ++g) {
      videos.push_back(generator.generate(
          common::VideoId{static_cast<std::uint32_t>(g)},
          static_cast<media::Genre>(g), 30, 1.8 + 0.7 * g));
    }
  }
  const display::DeviceCatalog& catalog = display::DeviceCatalog::standard();
  // Beside the catalog: brightness settings outside [0, 1].
  std::vector<display::DisplaySpec> specs = {
      {display::DisplayType::kLcd, 5.0, 720, 1280, 400.0, 1.2},
      {display::DisplayType::kOled, 6.0, 1440, 3200, 800.0, 1.2},
      {display::DisplayType::kOled, 6.0, 1440, 3200, 800.0, -0.1}};
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    specs.push_back(catalog.at(i).spec);
  }
  for (const media::Video& video : videos) {
    for (const display::DisplaySpec& spec : specs) {
      std::vector<double> rates;
      for (const media::VideoChunk& chunk : video.chunks) {
        rates.push_back(estimator.rate(spec, chunk).value);
      }
      const double priced = engine.video_gamma(spec, video, rates);
      const double unpriced = engine.video_gamma(spec, video);
      const double reference =
          reference_video_gamma(engine, model, spec, video);
      EXPECT_EQ(bits(priced), bits(reference));
      EXPECT_EQ(bits(unpriced), bits(reference));
    }
  }
  EXPECT_DOUBLE_EQ(engine.video_gamma(lcd_spec(), media::Video{}, {}), 0.0);
}

TEST(StrategyRegistryTest, ReproducesTable1) {
  const StrategyRegistry& registry = StrategyRegistry::table1();
  EXPECT_EQ(registry.entries().size(), 11u);
  int lcd = 0;
  int oled = 0;
  for (const StrategyEntry& e : registry.entries()) {
    EXPECT_GE(e.min_saving, 0.0);
    EXPECT_LE(e.max_saving, 1.0);
    EXPECT_LT(e.min_saving, e.max_saving);
    (e.display_type == display::DisplayType::kLcd ? lcd : oled) += 1;
  }
  EXPECT_EQ(lcd, 5);
  EXPECT_EQ(oled, 6);
}

TEST(StrategyRegistryTest, AverageRowMatchesPaper) {
  // Table I's "Average" row: 13%-49%, and the prior mu = 0.31.
  const StrategyRegistry& registry = StrategyRegistry::table1();
  EXPECT_NEAR(registry.average_min(), 0.13, 0.005);
  EXPECT_NEAR(registry.average_max(), 0.49, 0.005);
  EXPECT_NEAR(registry.prior_mean(), 0.31, 0.005);
}

TEST(ResourceModelTest, ComputeScalesWithDisplayPixels) {
  const ResourceModel model;
  media::Video video;
  display::DisplaySpec fhd = lcd_spec();
  display::DisplaySpec qhd = lcd_spec();
  qhd.width_px = 1440;
  qhd.height_px = 3040;
  EXPECT_GT(model.compute_cost(qhd, video), model.compute_cost(fhd, video));
}

TEST(ResourceModelTest, Reference1080pCostsCalibrationUnit) {
  const ResourceModel model;
  display::DisplaySpec ref = lcd_spec();
  ref.width_px = 1920;
  ref.height_px = 1080;
  media::Video video;
  EXPECT_NEAR(model.compute_cost(ref, video), 0.45, 1e-9);
}

TEST(ResourceModelTest, StorageScalesWithBitrateAndDuration) {
  const ResourceModel model;
  media::ContentGenerator generator(4);
  const media::Video small = generator.generate(
      common::VideoId{1}, media::Genre::kIrlChat, 10, 2.0);
  const media::Video large = generator.generate(
      common::VideoId{2}, media::Genre::kIrlChat, 30, 5.0);
  EXPECT_GT(model.storage_cost(large), model.storage_cost(small));
  // 10 chunks x 10 s x 2 Mbps / 8 = 25 MB raw, x2 overhead = 50 MB.
  EXPECT_NEAR(model.storage_cost(small), 50.0, 1e-9);
}

TEST(ResourceModelTest, EmptyVideoFreeStorage) {
  const ResourceModel model;
  EXPECT_DOUBLE_EQ(model.storage_cost(media::Video{}), 0.0);
}

}  // namespace
}  // namespace lpvs::transform
