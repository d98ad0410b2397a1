// Tests for the pixel-level frame subsystem and the per-pixel reference
// implementations, including the key consistency property: the
// statistics-based power/transform models equal their per-pixel
// counterparts.
#include <gtest/gtest.h>

#include <cmath>

#include "lpvs/media/frame.hpp"
#include "lpvs/transform/pixel_pipeline.hpp"

namespace lpvs {
namespace {

using media::Frame;
using media::Pixel;

display::DisplaySpec oled_spec() {
  return {display::DisplayType::kOled, 6.1, 1080, 2340, 700.0, 0.8};
}

TEST(FrameTest, ConstructionAndFill) {
  Frame frame(4, 3, {10, 20, 30});
  EXPECT_EQ(frame.width(), 4);
  EXPECT_EQ(frame.height(), 3);
  EXPECT_EQ(frame.pixel_count(), 12);
  EXPECT_EQ(frame.at(0, 0), (Pixel{10, 20, 30}));
  EXPECT_EQ(frame.at(3, 2), (Pixel{10, 20, 30}));
}

TEST(FrameTest, SetAndGetRoundTrip) {
  Frame frame(8, 8);
  frame.set(5, 3, {200, 100, 50});
  EXPECT_EQ(frame.at(5, 3), (Pixel{200, 100, 50}));
  EXPECT_EQ(frame.at(5, 4), (Pixel{0, 0, 0}));
}

TEST(FrameTest, FillRectClips) {
  Frame frame(10, 10);
  frame.fill_rect(8, 8, 10, 10, {255, 255, 255});  // overflows the frame
  EXPECT_EQ(frame.at(9, 9), (Pixel{255, 255, 255}));
  EXPECT_EQ(frame.at(7, 7), (Pixel{0, 0, 0}));
  frame.fill_rect(-5, -5, 7, 7, {1, 2, 3});  // negative origin clips
  EXPECT_EQ(frame.at(0, 0), (Pixel{1, 2, 3}));
}

TEST(SrgbConversion, KnownAnchors) {
  EXPECT_DOUBLE_EQ(media::srgb_to_linear(0), 0.0);
  EXPECT_NEAR(media::srgb_to_linear(255), 1.0, 1e-12);
  // 50% sRGB gray is ~21.4% linear light.
  EXPECT_NEAR(media::srgb_to_linear(128), 0.2158, 0.001);
}

TEST(SrgbConversion, RoundTripAllCodes) {
  for (int v = 0; v < 256; ++v) {
    EXPECT_EQ(media::linear_to_srgb(
                  media::srgb_to_linear(static_cast<std::uint8_t>(v))),
              v);
  }
}

TEST(SrgbConversion, Monotone) {
  for (int v = 1; v < 256; ++v) {
    EXPECT_GT(media::srgb_to_linear(static_cast<std::uint8_t>(v)),
              media::srgb_to_linear(static_cast<std::uint8_t>(v - 1)));
  }
}

TEST(ComputeStats, UniformGrayFrame) {
  const std::uint8_t code = 150;
  Frame frame(16, 16, {code, code, code});
  const display::FrameStats stats = media::compute_stats(frame);
  const double linear = media::srgb_to_linear(code);
  EXPECT_NEAR(stats.mean_r, linear, 1e-12);
  EXPECT_NEAR(stats.mean_g, linear, 1e-12);
  EXPECT_NEAR(stats.mean_b, linear, 1e-12);
  EXPECT_NEAR(stats.mean_luminance, linear, 1e-12);
  EXPECT_NEAR(stats.peak_luminance, linear, 1e-12);
}

TEST(ComputeStats, PeakTracksHighlight) {
  Frame frame(20, 20, {30, 30, 30});
  frame.fill_rect(0, 0, 20, 4, {240, 240, 240});  // top 20% bright
  const display::FrameStats stats = media::compute_stats(frame);
  EXPECT_GT(stats.peak_luminance, media::srgb_to_linear(200));
  EXPECT_LT(stats.mean_luminance, 0.4);
}

TEST(ComputeStats, EmptyFrameIsDefault) {
  const display::FrameStats stats = media::compute_stats(Frame{});
  EXPECT_DOUBLE_EQ(stats.mean_luminance, 0.5);  // default FrameStats
}

TEST(Synthesizer, Deterministic) {
  media::FrameSynthesizer a(5);
  media::FrameSynthesizer b(5);
  const Frame fa = a.render_genre(media::Genre::kMovie, 32, 24);
  const Frame fb = b.render_genre(media::Genre::kMovie, 32, 24);
  EXPECT_EQ(fa.data(), fb.data());
}

TEST(Synthesizer, GenreLuminanceOrdering) {
  media::FrameSynthesizer synth(6);
  double dark = 0.0;
  double bright = 0.0;
  for (int i = 0; i < 5; ++i) {
    dark += media::compute_stats(
                synth.render_genre(media::Genre::kDarkGame, 48, 32))
                .mean_luminance;
    bright += media::compute_stats(
                  synth.render_genre(media::Genre::kSports, 48, 32))
                  .mean_luminance;
  }
  EXPECT_LT(dark, bright);
}

TEST(Synthesizer, StatsRoughlyMatchTarget) {
  media::FrameSynthesizer synth(7);
  display::FrameStats target;
  target.mean_r = 0.30;
  target.mean_g = 0.35;
  target.mean_b = 0.25;
  target.mean_luminance = 0.33;
  target.peak_luminance = 0.8;
  const Frame frame = synth.render(target.clamped(), 64, 48);
  const display::FrameStats measured = media::compute_stats(frame);
  EXPECT_NEAR(measured.mean_g, target.mean_g, 0.15);
  EXPECT_GT(measured.peak_luminance, 0.5);
}

TEST(PixelPower, MatchesStatsModelExactly) {
  // The OLED power model is linear in per-pixel channel values, so the
  // per-pixel sum must equal the closed form on the measured statistics.
  media::FrameSynthesizer synth(10);
  const display::OledPowerModel model;
  for (media::Genre genre : {media::Genre::kDarkGame, media::Genre::kMusic,
                             media::Genre::kSports}) {
    const Frame frame = synth.render_genre(genre, 40, 30);
    const double per_pixel =
        transform::oled_power_per_pixel(model, oled_spec(), frame).value;
    const double from_stats =
        model.power(oled_spec(), media::compute_stats(frame)).value;
    EXPECT_NEAR(per_pixel, from_stats, 1e-6 * per_pixel)
        << media::to_string(genre);
  }
}

TEST(PixelPower, DarkFrameCheaper) {
  const display::OledPowerModel model;
  const Frame dark(16, 16, {20, 20, 20});
  const Frame bright(16, 16, {230, 230, 230});
  EXPECT_LT(transform::oled_power_per_pixel(model, oled_spec(), dark).value,
            transform::oled_power_per_pixel(model, oled_spec(), bright)
                .value);
}

TEST(PixelPower, BlackFramePaysOnlyTheStaticFloor) {
  const display::OledPowerModel model;
  const Frame black(12, 9, {0, 0, 0});
  EXPECT_NEAR(transform::oled_power_per_pixel(model, oled_spec(), black).value,
              model.coefficients().static_mw_per_sq_in *
                  oled_spec().area_sq_inches(),
              1e-9);
}

TEST(PixelPower, UniformFramePowerIsIndependentOfFrameResolution) {
  // A frame is a proxy for what the panel shows, normalized to the
  // panel's pixel count: a downsampled uniform frame costs the same.
  const display::OledPowerModel model;
  const Pixel teal{30, 160, 150};
  const double small =
      transform::oled_power_per_pixel(model, oled_spec(), Frame(8, 6, teal))
          .value;
  const double large = transform::oled_power_per_pixel(model, oled_spec(),
                                                       Frame(96, 72, teal))
                           .value;
  EXPECT_NEAR(small, large, 1e-9 * large);
}

TEST(PixelPower, BluePixelsCostMoreThanGreen) {
  const display::OledPowerModel model;
  const double blue = transform::oled_power_per_pixel(
                          model, oled_spec(), Frame(8, 8, {0, 0, 200}))
                          .value;
  const double green = transform::oled_power_per_pixel(
                           model, oled_spec(), Frame(8, 8, {0, 200, 0}))
                           .value;
  EXPECT_GT(blue, green);
}

TEST(ColorTransformPixel, ReducesPerPixelPower) {
  media::FrameSynthesizer synth(11);
  const Frame frame = synth.render_genre(media::Genre::kBrightGame, 32, 32);
  const media::Frame transformed =
      transform::apply_color_transform(frame, transform::QualityBudget{});
  const display::OledPowerModel model;
  EXPECT_LT(
      transform::oled_power_per_pixel(model, oled_spec(), transformed).value,
      transform::oled_power_per_pixel(model, oled_spec(), frame).value);
}

TEST(ColorTransformPixel, IdentityBudgetLeavesEveryPixelUnchanged) {
  transform::QualityBudget identity;
  identity.darken = 1.0;
  identity.blue_scale = 1.0;
  identity.red_scale = 1.0;
  media::FrameSynthesizer synth(13);
  const Frame frame = synth.render_genre(media::Genre::kMusic, 24, 16);
  const Frame out = transform::apply_color_transform(frame, identity);
  ASSERT_EQ(out.width(), frame.width());
  ASSERT_EQ(out.height(), frame.height());
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      EXPECT_EQ(out.at(x, y), frame.at(x, y)) << x << "," << y;
    }
  }
}

TEST(ColorTransformPixel, BlackStaysBlackAndBlueIsAttenuatedMost) {
  const transform::QualityBudget budget;
  const Frame black(4, 4, {0, 0, 0});
  EXPECT_EQ(transform::apply_color_transform(black, budget).at(2, 2),
            (Pixel{0, 0, 0}));
  const Pixel white =
      transform::apply_color_transform(Frame(4, 4, {255, 255, 255}), budget)
          .at(1, 1);
  EXPECT_LT(white.b, white.r);
  EXPECT_LT(white.r, white.g);
  EXPECT_LT(white.g, 255);
}

TEST(ColorTransformPixel, StrongerDarkeningNeverCostsMorePower) {
  // The quality/power trade-off the edge sells: each step down in the
  // darkening factor lowers (never raises) per-pixel panel power.
  media::FrameSynthesizer synth(14);
  const Frame frame = synth.render_genre(media::Genre::kSports, 32, 24);
  const display::OledPowerModel model;
  double previous =
      transform::oled_power_per_pixel(model, oled_spec(), frame).value;
  for (double darken : {0.95, 0.85, 0.7, 0.5, 0.3}) {
    transform::QualityBudget budget;
    budget.darken = darken;
    const double power =
        transform::oled_power_per_pixel(
            model, oled_spec(), transform::apply_color_transform(frame, budget))
            .value;
    EXPECT_LE(power, previous) << "darken " << darken;
    previous = power;
  }
}

TEST(ColorTransformPixel, MatchesStatsTransformPrediction) {
  // Per-pixel color transform then measure, vs stats-based prediction of
  // the transformed power: equal up to 8-bit quantization error.
  media::FrameSynthesizer synth(12);
  const Frame frame = synth.render_genre(media::Genre::kIrlChat, 48, 32);
  const transform::QualityBudget budget;
  const display::OledPowerModel model;

  const media::Frame pixel_transformed =
      transform::apply_color_transform(frame, budget);
  const double measured =
      transform::oled_power_per_pixel(model, oled_spec(), pixel_transformed)
          .value;

  const transform::OledColorTransform stats_transform(model, budget);
  const double predicted =
      stats_transform.apply(oled_spec(), media::compute_stats(frame))
          .display_power_after.value;
  EXPECT_NEAR(measured, predicted, 0.03 * predicted);
}

}  // namespace
}  // namespace lpvs
