#include "lpvs/transform/pixel_pipeline.hpp"

#include <algorithm>
#include <cmath>

namespace lpvs::transform {
namespace {

std::uint8_t scale_channel(std::uint8_t value, double factor) {
  return media::linear_to_srgb(
      std::clamp(media::srgb_to_linear(value) * factor, 0.0, 1.0));
}

}  // namespace

common::Milliwatts oled_power_per_pixel(const display::OledPowerModel& model,
                                        const display::DisplaySpec& spec,
                                        const media::Frame& frame) {
  const auto& c = model.coefficients();
  double weighted_sum = 0.0;
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      const media::Pixel p = frame.at(x, y);
      weighted_sum += c.red_weight * media::srgb_to_linear(p.r) +
                      c.green_weight * media::srgb_to_linear(p.g) +
                      c.blue_weight * media::srgb_to_linear(p.b);
    }
  }
  // Normalize the frame's pixel sum to the *panel's* pixel count: the
  // frame is a (possibly downsampled) proxy for what the panel shows.
  const double frame_pixels =
      std::max<double>(1.0, static_cast<double>(frame.pixel_count()));
  const double panel_megapixels =
      static_cast<double>(spec.pixel_count()) / 1.0e6;
  const double mean_weighted = weighted_sum / frame_pixels;
  const double emission = c.mw_per_megapixel_unit * panel_megapixels *
                          std::clamp(spec.brightness, 0.0, 1.0) *
                          mean_weighted;
  return {emission + c.static_mw_per_sq_in * spec.area_sq_inches()};
}

media::Frame apply_color_transform(const media::Frame& frame,
                                   const QualityBudget& budget) {
  media::Frame out = frame;
  const double fr = budget.darken * budget.red_scale;
  const double fg = budget.darken;
  const double fb = budget.darken * budget.blue_scale;
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      const media::Pixel p = out.at(x, y);
      out.set(x, y,
              {scale_channel(p.r, fr), scale_channel(p.g, fg),
               scale_channel(p.b, fb)});
    }
  }
  return out;
}

}  // namespace lpvs::transform
