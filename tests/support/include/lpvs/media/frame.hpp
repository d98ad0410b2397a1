// Pixel-level frames (library lpvs_reference_models; no src library links
// it).
//
// The emulator's fast path works on per-chunk content *statistics*
// (display::FrameStats) because the literature power models are linear in
// per-pixel channel values — the statistics are sufficient.  This module
// provides the slow path those statistics stand in for: real RGB frame
// buffers, a synthesizer that renders genre-faithful frames, and
// gamma-correct statistics extraction.  Property tests use it to validate
// the statistics path pixel-by-pixel against the transform module's
// per-pixel reference implementations.
#pragma once

#include <cstdint>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/media/video.hpp"

namespace lpvs::media {

/// One 8-bit sRGB pixel.
struct Pixel {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
  bool operator==(const Pixel&) const = default;
};

/// An interleaved 8-bit sRGB frame buffer.
class Frame {
 public:
  Frame() = default;
  Frame(int width, int height, Pixel fill = {});

  int width() const { return width_; }
  int height() const { return height_; }
  long pixel_count() const { return static_cast<long>(width_) * height_; }
  bool empty() const { return data_.empty(); }

  Pixel at(int x, int y) const;
  void set(int x, int y, Pixel pixel);

  /// Fills an axis-aligned rectangle (clipped to the frame).
  void fill_rect(int x0, int y0, int w, int h, Pixel pixel);

  const std::vector<std::uint8_t>& data() const { return data_; }
  std::vector<std::uint8_t>& data() { return data_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;  // RGBRGB..., row-major
};

/// sRGB 8-bit value -> linear-light in [0, 1] (gamma ~2.2 via the exact
/// sRGB transfer curve), and its inverse.  LUT-backed; exact round-trip on
/// all 256 code points.
double srgb_to_linear(std::uint8_t value);
std::uint8_t linear_to_srgb(double linear);

/// Computes the sufficient statistics the power models consume from a real
/// frame: linear-light channel means, Rec.709 luminance, and the 95th-
/// percentile luminance as the peak proxy.
display::FrameStats compute_stats(const Frame& frame);

/// Renders genre-faithful synthetic frames: a luminance-graded background,
/// a few colored content regions, a bright highlight, and sensor noise —
/// enough structure for the stats extraction and transforms to be
/// exercised on non-trivial content.
class FrameSynthesizer {
 public:
  explicit FrameSynthesizer(std::uint64_t seed) : rng_(seed) {}

  /// Renders one frame matching a chunk's statistics profile.
  Frame render(const display::FrameStats& target, int width, int height);

  /// Renders a frame for a genre directly.
  Frame render_genre(Genre genre, int width, int height);

 private:
  common::Rng rng_;
};

}  // namespace lpvs::media
