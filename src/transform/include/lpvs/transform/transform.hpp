// Energy-saving content transforms (SII-B) and the edge-side resource cost
// model g(.)/h(.) (SIV-D).
//
// Gamma semantics.  The paper defines gamma_n as the "power reduction
// ratio" with 0 < gamma_n < 1 and initializes its prior mean from Table I's
// *saving* bands (mu = (0.13+0.49)/2 = 0.31), and reports ~35% device
// energy saving.  Equation (3) literally multiplies p by gamma when the
// transform is on, which with mu = 0.31 would mean 69% saving and
// contradict every reported number.  We therefore adopt the semantics the
// paper's numbers imply: gamma is the *fraction of device power saved*, and
// the effective power rate is (1 - gamma) * p.  See DESIGN.md.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "lpvs/common/units.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/media/video.hpp"

namespace lpvs::transform {

/// Result of transforming one chunk for one device.
struct ChunkTransform {
  display::FrameStats transformed_stats;  ///< content after the transform
  double backlight_level = 1.0;           ///< LCD only: scaled backlight
  common::Milliwatts display_power_before;
  common::Milliwatts display_power_after;
  /// Perceptual distortion proxy in [0, 1]; the literature keeps this under
  /// a small threshold for "negligible/tolerable" quality loss.
  double distortion = 0.0;

  double display_saving_fraction() const {
    return display_power_before.value > 0.0
               ? (display_power_before.value - display_power_after.value) /
                     display_power_before.value
               : 0.0;
  }
};

/// Quality budget for transforms; tighter budgets save less power.
struct QualityBudget {
  /// LCD: the backlight is scaled to cover this fraction of the chunk's
  /// peak luminance ("quality-adapted" scaling [18]: the brightest few
  /// percent of highlights clip, everything else is compensated).
  double peak_coverage = 0.55;
  /// LCD: floor on the scaled backlight (never dim below this fraction of
  /// the user's setting).
  double min_backlight_fraction = 0.22;
  /// OLED: global darkening factor applied to all channels ([23]).
  double darken = 0.70;
  /// OLED: extra attenuation of the power-hungry blue channel ([12],[17]).
  double blue_scale = 0.50;
  /// OLED: attenuation of red (between green's 1.0 and blue's scale).
  double red_scale = 0.75;
};

/// LCD: quality-adapted backlight scaling with luminance compensation
/// ([18]-[22]).  The backlight is lowered to just cover the chunk's peak
/// luminance; pixel values are compensated upward (free for the panel).
class BacklightScaling {
 public:
  BacklightScaling(display::LcdPowerModel model, QualityBudget budget)
      : model_(model), budget_(budget) {}

  ChunkTransform apply(const display::DisplaySpec& spec,
                       const display::FrameStats& stats) const;

  /// The scaled backlight level for clamped content `s`.
  double backlight_level(const display::DisplaySpec& spec,
                         const display::FrameStats& s) const;

 private:
  display::LcdPowerModel model_;
  QualityBudget budget_;
};

/// OLED: color transforming and darkening ([12], [17], [23]): scale the
/// blue/red channels toward the efficient green and darken slightly.
class OledColorTransform {
 public:
  OledColorTransform(display::OledPowerModel model, QualityBudget budget)
      : model_(model), budget_(budget) {}

  ChunkTransform apply(const display::DisplaySpec& spec,
                       const display::FrameStats& stats) const;

  /// Clamped content `s` after the transform, before clamping (the
  /// distortion proxy reads the unclamped channel means).
  display::FrameStats transformed(const display::FrameStats& s) const;

 private:
  display::OledPowerModel model_;
  QualityBudget budget_;
};

/// Facade dispatching on the device's panel type and lifting the
/// display-level saving to the device-level gamma the scheduler uses.
class TransformEngine {
 public:
  explicit TransformEngine(display::DevicePowerModel device_model = {},
                           QualityBudget budget = {});

  ChunkTransform transform_chunk(const display::DisplaySpec& spec,
                                 const media::VideoChunk& chunk) const;

  /// Average gamma over a whole video — the realized gamma_n observation
  /// that feeds the Bayesian update at the end of a slot (SV-D).
  double video_gamma(const display::DisplaySpec& spec,
                     const media::Video& video) const;

  /// The same gamma from already-priced chunks: `playback_mw[k]` must be
  /// the untransformed playback power of chunk k (what
  /// media::PowerRateEstimator::rate returns under this engine's device
  /// model).  Same sums in the same order, so the result is bit-identical
  /// to the two-argument form without pricing any chunk again.
  double video_gamma(const display::DisplaySpec& spec,
                     const media::Video& video,
                     std::span<const double> playback_mw) const;

  const QualityBudget& budget() const { return budget_; }

 private:
  template <typename PlaybackMw>
  double weighted_video_gamma(const display::DisplaySpec& spec,
                              const media::Video& video,
                              PlaybackMw playback_mw) const;

  display::DevicePowerModel device_model_;
  QualityBudget budget_;
};

/// One row of Table I.
struct StrategyEntry {
  std::string name;
  display::DisplayType display_type;
  double min_saving;  ///< lower bound of the published band (0 for "<= x")
  double max_saving;
};

/// The Table I registry: the eleven published strategies with their saving
/// bands.  The band average (13%-49%) seeds the Bayesian prior on gamma.
class StrategyRegistry {
 public:
  static const StrategyRegistry& table1();

  const std::vector<StrategyEntry>& entries() const { return entries_; }

  /// Mean lower / upper bound across all strategies; the paper's
  /// "Average 13%-49%" row, from which mu = (0.13+0.49)/2 = 0.31.
  double average_min() const;
  double average_max() const;
  double prior_mean() const { return 0.5 * (average_min() + average_max()); }

  explicit StrategyRegistry(std::vector<StrategyEntry> entries);

 private:
  std::vector<StrategyEntry> entries_;
};

/// Edge resource cost of transforming d_n(t) (SIV-D).  g(.) is measured in
/// abstract compute units where 1.0 = one 1080p30 real-time transform
/// stream; h(.) in megabytes of staging storage for the slot's chunks.
class ResourceModel {
 public:
  struct Coefficients {
    double compute_units_per_megapixel30 = 0.45;  ///< pixel-rate scaling
    double storage_overhead = 2.0;  ///< input + transformed copies
  };

  ResourceModel() : ResourceModel(Coefficients{}) {}
  explicit ResourceModel(Coefficients coefficients)
      : coefficients_(coefficients) {}

  /// g(d_n(t)): compute units to transform this video in real time on the
  /// given display (transform work scales with the *display* pixel rate).
  double compute_cost(const display::DisplaySpec& spec,
                      const media::Video& video) const;

  /// h(d_n(t)): staging storage in MB for the slot's chunks.
  double storage_cost(const media::Video& video) const;

 private:
  Coefficients coefficients_;
};

}  // namespace lpvs::transform
