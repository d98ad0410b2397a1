#include "lpvs/media/frame.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace lpvs::media {
namespace {

/// LUT of the exact sRGB electro-optical transfer function.
const std::array<double, 256>& srgb_lut() {
  static const std::array<double, 256> lut = [] {
    std::array<double, 256> table{};
    for (int v = 0; v < 256; ++v) {
      const double c = v / 255.0;
      table[static_cast<std::size_t>(v)] =
          c <= 0.04045 ? c / 12.92 : std::pow((c + 0.055) / 1.055, 2.4);
    }
    return table;
  }();
  return lut;
}

double luma709(const Pixel& p) {
  return 0.2126 * srgb_to_linear(p.r) + 0.7152 * srgb_to_linear(p.g) +
         0.0722 * srgb_to_linear(p.b);
}

std::uint8_t to_u8(double linear01) {
  return linear_to_srgb(std::clamp(linear01, 0.0, 1.0));
}

}  // namespace

Frame::Frame(int width, int height, Pixel fill)
    : width_(width),
      height_(height),
      data_(static_cast<std::size_t>(width) * height * 3) {
  assert(width >= 0 && height >= 0);
  for (std::size_t i = 0; i + 2 < data_.size(); i += 3) {
    data_[i] = fill.r;
    data_[i + 1] = fill.g;
    data_[i + 2] = fill.b;
  }
}

Pixel Frame::at(int x, int y) const {
  assert(x >= 0 && x < width_ && y >= 0 && y < height_);
  const std::size_t base =
      (static_cast<std::size_t>(y) * width_ + x) * 3;
  return {data_[base], data_[base + 1], data_[base + 2]};
}

void Frame::set(int x, int y, Pixel pixel) {
  assert(x >= 0 && x < width_ && y >= 0 && y < height_);
  const std::size_t base =
      (static_cast<std::size_t>(y) * width_ + x) * 3;
  data_[base] = pixel.r;
  data_[base + 1] = pixel.g;
  data_[base + 2] = pixel.b;
}

void Frame::fill_rect(int x0, int y0, int w, int h, Pixel pixel) {
  const int x1 = std::clamp(x0 + w, 0, width_);
  const int y1 = std::clamp(y0 + h, 0, height_);
  x0 = std::clamp(x0, 0, width_);
  y0 = std::clamp(y0, 0, height_);
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) set(x, y, pixel);
  }
}

double srgb_to_linear(std::uint8_t value) { return srgb_lut()[value]; }

std::uint8_t linear_to_srgb(double linear) {
  linear = std::clamp(linear, 0.0, 1.0);
  const double c = linear <= 0.0031308
                       ? linear * 12.92
                       : 1.055 * std::pow(linear, 1.0 / 2.4) - 0.055;
  return static_cast<std::uint8_t>(std::lround(c * 255.0));
}

display::FrameStats compute_stats(const Frame& frame) {
  display::FrameStats stats;
  if (frame.empty()) return stats;
  double r = 0.0;
  double g = 0.0;
  double b = 0.0;
  std::vector<double> lumas;
  lumas.reserve(static_cast<std::size_t>(frame.pixel_count()));
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      const Pixel p = frame.at(x, y);
      r += srgb_to_linear(p.r);
      g += srgb_to_linear(p.g);
      b += srgb_to_linear(p.b);
      lumas.push_back(luma709(p));
    }
  }
  const auto n = static_cast<double>(frame.pixel_count());
  stats.mean_r = r / n;
  stats.mean_g = g / n;
  stats.mean_b = b / n;
  stats.mean_luminance =
      0.2126 * stats.mean_r + 0.7152 * stats.mean_g + 0.0722 * stats.mean_b;
  // 95th-percentile luminance as the "peak the content needs".
  const auto k = static_cast<std::size_t>(0.95 * (lumas.size() - 1));
  std::nth_element(lumas.begin(), lumas.begin() + static_cast<long>(k),
                   lumas.end());
  stats.peak_luminance = lumas[k];
  return stats.clamped();
}

Frame FrameSynthesizer::render(const display::FrameStats& target, int width,
                               int height) {
  Frame frame(width, height);
  const display::FrameStats t = target.clamped();
  // Background: vertical luminance gradient around the target means.
  for (int y = 0; y < height; ++y) {
    const double grade =
        0.75 + 0.5 * static_cast<double>(y) / std::max(height - 1, 1);
    const Pixel row{to_u8(t.mean_r * grade), to_u8(t.mean_g * grade),
                    to_u8(t.mean_b * grade)};
    for (int x = 0; x < width; ++x) frame.set(x, y, row);
  }
  // Content regions: a few rectangles with channel-biased colors.
  const int regions = 3 + static_cast<int>(rng_.uniform_int(0, 3));
  for (int i = 0; i < regions; ++i) {
    const int w = std::max(2, static_cast<int>(width * rng_.uniform(0.1, 0.4)));
    const int h =
        std::max(2, static_cast<int>(height * rng_.uniform(0.1, 0.4)));
    const int x0 = static_cast<int>(rng_.uniform_int(0, std::max(0, width - w)));
    const int y0 =
        static_cast<int>(rng_.uniform_int(0, std::max(0, height - h)));
    const double boost = rng_.uniform(0.5, 1.5);
    frame.fill_rect(x0, y0, w, h,
                    {to_u8(t.mean_r * boost), to_u8(t.mean_g * boost),
                     to_u8(t.mean_b * boost * rng_.uniform(0.7, 1.3))});
  }
  // A highlight near the target peak luminance, sized so it survives the
  // 95th-percentile peak estimate (~7% of the frame).
  const int hw = std::max(
      2, static_cast<int>(std::sqrt(0.07 * width * height)));
  const int hx = static_cast<int>(rng_.uniform_int(0, std::max(0, width - hw)));
  const int hy =
      static_cast<int>(rng_.uniform_int(0, std::max(0, height - hw)));
  frame.fill_rect(hx, hy, hw, hw,
                  {to_u8(t.peak_luminance), to_u8(t.peak_luminance),
                   to_u8(t.peak_luminance)});
  // Sensor noise.
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      Pixel p = frame.at(x, y);
      auto jitter = [&](std::uint8_t v) {
        const int noisy = static_cast<int>(v) +
                          static_cast<int>(rng_.uniform_int(-6, 6));
        return static_cast<std::uint8_t>(std::clamp(noisy, 0, 255));
      };
      frame.set(x, y, {jitter(p.r), jitter(p.g), jitter(p.b)});
    }
  }
  return frame;
}

Frame FrameSynthesizer::render_genre(Genre genre, int width, int height) {
  const auto& profile = ContentGenerator::profile(genre);
  display::FrameStats stats;
  stats.mean_luminance = profile.luminance_mean;
  stats.mean_r = profile.luminance_mean * profile.r_bias;
  stats.mean_g = profile.luminance_mean * profile.g_bias;
  stats.mean_b = profile.luminance_mean * profile.b_bias;
  stats.peak_luminance = std::min(1.0, profile.luminance_mean + 0.3);
  return render(stats.clamped(), width, height);
}

}  // namespace lpvs::media
