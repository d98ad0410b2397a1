#include "lpvs/transform/transform.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lpvs::transform {

ChunkTransform BacklightScaling::apply(
    const display::DisplaySpec& spec,
    const display::FrameStats& stats) const {
  const display::FrameStats s = stats.clamped();
  // Target backlight: cover peak_coverage of the content's peak luminance,
  // never below the floor and never above the user's current setting.
  const double wanted = s.peak_luminance * budget_.peak_coverage;
  const double floor = budget_.min_backlight_fraction * spec.brightness;
  const double scaled =
      std::clamp(wanted, std::min(floor, spec.brightness), spec.brightness);

  ChunkTransform out;
  out.backlight_level = scaled;
  // Luminance compensation: pixel values are boosted so perceived
  // brightness is preserved; only highlights above the new backlight clip.
  out.transformed_stats = s;
  out.transformed_stats.peak_luminance =
      std::min(s.peak_luminance, scaled / std::max(spec.brightness, 1e-9));
  out.display_power_before = model_.power(spec, spec.brightness);
  out.display_power_after = model_.power(spec, scaled);
  // Distortion proxy: fraction of the luminance range that clipped.
  const double clipped =
      std::max(0.0, s.peak_luminance * spec.brightness - scaled);
  out.distortion = std::clamp(
      clipped / std::max(s.peak_luminance * spec.brightness, 1e-9), 0.0, 1.0);
  return out;
}

ChunkTransform OledColorTransform::apply(
    const display::DisplaySpec& spec,
    const display::FrameStats& stats) const {
  const display::FrameStats s = stats.clamped();
  ChunkTransform out;
  display::FrameStats t = s;
  t.mean_r = s.mean_r * budget_.darken * budget_.red_scale;
  t.mean_g = s.mean_g * budget_.darken;
  t.mean_b = s.mean_b * budget_.darken * budget_.blue_scale;
  // Rec.709 relative luminance of the transformed channel means.
  t.mean_luminance =
      0.2126 * t.mean_r + 0.7152 * t.mean_g + 0.0722 * t.mean_b;
  t.peak_luminance = s.peak_luminance * budget_.darken;
  out.transformed_stats = t.clamped();
  out.display_power_before = model_.power(spec, s);
  out.display_power_after = model_.power(spec, out.transformed_stats);
  // Perceptual distortion proxy: luminance-weighted channel deviation
  // (green dominates perceived lightness, blue the least).
  out.distortion = std::clamp(0.30 * (s.mean_r - t.mean_r) +
                                  0.55 * (s.mean_g - t.mean_g) +
                                  0.15 * (s.mean_b - t.mean_b),
                              0.0, 1.0);
  return out;
}

TransformEngine::TransformEngine(display::DevicePowerModel device_model,
                                 QualityBudget budget)
    : device_model_(device_model), budget_(budget) {}

ChunkTransform TransformEngine::transform_chunk(
    const display::DisplaySpec& spec, const media::VideoChunk& chunk) const {
  if (spec.type == display::DisplayType::kLcd) {
    return BacklightScaling(device_model_.lcd(), budget_)
        .apply(spec, chunk.stats);
  }
  return OledColorTransform(device_model_.oled(), budget_)
      .apply(spec, chunk.stats);
}

double TransformEngine::chunk_gamma(const display::DisplaySpec& spec,
                                    const media::VideoChunk& chunk) const {
  const ChunkTransform result = transform_chunk(spec, chunk);
  const double total =
      device_model_.playback_power(spec, chunk.stats, chunk.bitrate_mbps)
          .value;
  if (total <= 0.0) return 0.0;
  const double saved = result.display_power_before.value -
                       result.display_power_after.value;
  return std::clamp(saved / total, 0.0, 1.0);
}

namespace {

/// Energy-weighted average: gamma over a slot is total energy saved over
/// total energy that would have been drawn untransformed.  `playback_mw(k)`
/// is chunk k's untransformed playback power.
template <typename PlaybackMw>
double weighted_video_gamma(const TransformEngine& engine,
                            const display::DisplaySpec& spec,
                            const media::Video& video,
                            PlaybackMw playback_mw) {
  double saved_mwh = 0.0;
  double base_mwh = 0.0;
  for (std::size_t k = 0; k < video.chunks.size(); ++k) {
    const media::VideoChunk& chunk = video.chunks[k];
    const double total = playback_mw(k);
    const ChunkTransform result = engine.transform_chunk(spec, chunk);
    const double saved = result.display_power_before.value -
                         result.display_power_after.value;
    base_mwh += total * chunk.duration.value;
    saved_mwh += saved * chunk.duration.value;
  }
  return base_mwh > 0.0 ? std::clamp(saved_mwh / base_mwh, 0.0, 1.0) : 0.0;
}

}  // namespace

double TransformEngine::video_gamma(const display::DisplaySpec& spec,
                                    const media::Video& video) const {
  return weighted_video_gamma(*this, spec, video, [&](std::size_t k) {
    const media::VideoChunk& chunk = video.chunks[k];
    return device_model_.playback_power(spec, chunk.stats, chunk.bitrate_mbps)
        .value;
  });
}

double TransformEngine::video_gamma(const display::DisplaySpec& spec,
                                    const media::Video& video,
                                    std::span<const double> playback_mw) const {
  assert(playback_mw.size() >= video.chunks.size());
  return weighted_video_gamma(*this, spec, video,
                              [&](std::size_t k) { return playback_mw[k]; });
}

StrategyRegistry::StrategyRegistry(std::vector<StrategyEntry> entries)
    : entries_(std::move(entries)) {
  assert(!entries_.empty());
}

const StrategyRegistry& StrategyRegistry::table1() {
  using display::DisplayType;
  static const StrategyRegistry registry({
      {"quality adapted backlight scaling [18]", DisplayType::kLcd, 0.27, 0.42},
      {"dynamic backlight scaling [19]", DisplayType::kLcd, 0.15, 0.49},
      {"dynamic backlight luminance scaling [20]", DisplayType::kLcd, 0.20,
       0.80},
      {"brightness & contrast scaling [21]", DisplayType::kLcd, 0.00, 0.50},
      {"luminance dimming & compensation [22]", DisplayType::kLcd, 0.20, 0.38},
      {"color and shape transforming [17]", DisplayType::kOled, 0.25, 0.66},
      {"color transforming and darkening [23]", DisplayType::kOled, 0.00,
       0.60},
      {"color transforming with constraints [12]", DisplayType::kOled, 0.00,
       0.64},
      {"pixel disabling & resolution scaling [24]", DisplayType::kOled, 0.00,
       0.26},
      {"image pixel scaling [25]", DisplayType::kOled, 0.38, 0.42},
      {"redundant subpixel shutoff [6]", DisplayType::kOled, 0.00, 0.21},
  });
  return registry;
}

double StrategyRegistry::average_min() const {
  double sum = 0.0;
  for (const StrategyEntry& e : entries_) sum += e.min_saving;
  return sum / static_cast<double>(entries_.size());
}

double StrategyRegistry::average_max() const {
  double sum = 0.0;
  for (const StrategyEntry& e : entries_) sum += e.max_saving;
  return sum / static_cast<double>(entries_.size());
}

double ResourceModel::compute_cost(const display::DisplaySpec& spec,
                                   const media::Video& video) const {
  // Transform work is per displayed pixel per frame; normalize to a
  // 1080p30 stream (~62.2 megapixel/s) as one compute unit's worth.
  (void)video;  // bitrate does not change the per-pixel transform cost
  const double megapixels =
      static_cast<double>(spec.pixel_count()) / 1.0e6;
  constexpr double kFps = 30.0;
  constexpr double kReferenceMegapixelRate = 1920.0 * 1080.0 / 1.0e6 * 30.0;
  return coefficients_.compute_units_per_megapixel30 * megapixels * kFps /
         kReferenceMegapixelRate;
}

double ResourceModel::storage_cost(const media::Video& video) const {
  double megabytes = 0.0;
  for (const media::VideoChunk& chunk : video.chunks) {
    megabytes += chunk.bitrate_mbps * chunk.duration.value / 8.0;
  }
  return megabytes * coefficients_.storage_overhead;
}

}  // namespace lpvs::transform
