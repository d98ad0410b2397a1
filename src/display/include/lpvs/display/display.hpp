// Display hardware models (SII-B).
//
// Two panel families with opposite power characteristics:
//  * LCD — power dominated by the backlight; nearly independent of content,
//    roughly affine in backlight level (Chang et al., "DLS" [20]).
//  * OLED — power emitted per sub-pixel; depends on the displayed colors,
//    with blue sub-pixels ~2x the power of green and red in between
//    (Stanley-Marbell et al., "Crayon" [17]).
//
// The reproduction does not ship real video frames; content enters these
// models through FrameStats — per-chunk channel/luminance statistics that
// are exactly the sufficient statistics of the linear-in-pixel power models
// below (see DESIGN.md substitution table).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/common/units.hpp"

namespace lpvs::display {

enum class DisplayType : std::uint8_t { kLcd, kOled };

std::string to_string(DisplayType type);

/// Sufficient content statistics of one video chunk for power purposes.
/// Channel means are linear-light (already gamma-decoded) in [0, 1].
struct FrameStats {
  double mean_luminance = 0.5;  ///< relative luminance in [0, 1]
  double mean_r = 0.5;
  double mean_g = 0.5;
  double mean_b = 0.5;
  /// Peak luminance the content needs (95th-percentile proxy); bounds how
  /// far an LCD backlight can be scaled without clipping highlights.
  double peak_luminance = 0.9;

  /// Clamps every field into its valid range.
  FrameStats clamped() const {
    FrameStats out = *this;
    out.mean_luminance = std::clamp(out.mean_luminance, 0.0, 1.0);
    out.mean_r = std::clamp(out.mean_r, 0.0, 1.0);
    out.mean_g = std::clamp(out.mean_g, 0.0, 1.0);
    out.mean_b = std::clamp(out.mean_b, 0.0, 1.0);
    out.peak_luminance =
        std::clamp(out.peak_luminance, out.mean_luminance, 1.0);
    return out;
  }
};

/// Physical description of one phone's panel.
struct DisplaySpec {
  DisplayType type = DisplayType::kOled;
  double diagonal_inches = 6.1;
  int width_px = 1080;
  int height_px = 2340;
  double max_nits = 600.0;
  /// User brightness setting in [0, 1]; video playback typically mid-high.
  double brightness = 0.8;

  double area_sq_inches() const;
  long pixel_count() const { return static_cast<long>(width_px) * height_px; }
};

/// LCD panel power: backlight (affine in backlight level, scaled by panel
/// area) plus a constant panel/driver term.  Coefficients calibrated to the
/// measurements of Carroll & Heiser [9] and Chang et al. [20]: a ~4" panel
/// spans roughly 70 mW (dim) to 420 mW (full backlight).
class LcdPowerModel {
 public:
  struct Coefficients {
    double backlight_floor_mw_per_sq_in = 5.0;   ///< at backlight level 0
    double backlight_range_mw_per_sq_in = 50.0;  ///< added at level 1
    double panel_mw_per_sq_in = 2.5;             ///< drivers, TFT array
  };

  LcdPowerModel() : LcdPowerModel(Coefficients{}) {}
  explicit LcdPowerModel(Coefficients coefficients)
      : coefficients_(coefficients) {}

  /// Panel power at the given backlight level in [0, 1].  Content does not
  /// matter for an LCD: the backlight burns the same regardless of pixels.
  common::Milliwatts power(const DisplaySpec& spec,
                           double backlight_level) const;

  /// power() on a panel of `area_sq_in` square inches, for callers that
  /// compute the area once per panel.
  double power_mw(double area_sq_in, double backlight_level) const {
    backlight_level = std::clamp(backlight_level, 0.0, 1.0);
    const double backlight =
        (coefficients_.backlight_floor_mw_per_sq_in +
         coefficients_.backlight_range_mw_per_sq_in * backlight_level) *
        area_sq_in;
    const double panel = coefficients_.panel_mw_per_sq_in * area_sq_in;
    return backlight + panel;
  }

  const Coefficients& coefficients() const { return coefficients_; }

 private:
  Coefficients coefficients_;
};

/// OLED panel power: per-channel emission proportional to linear-light
/// channel level, pixel count and brightness, with the Crayon channel
/// weights (blue ~2x green, red in between), plus a static term.
class OledPowerModel {
 public:
  struct Coefficients {
    // Relative channel efficiencies; normalized so a mid-gray frame on a
    // 6" 1080p panel at brightness 0.8 draws a few hundred mW.
    double red_weight = 1.5;
    double green_weight = 1.0;
    double blue_weight = 2.1;
    double mw_per_megapixel_unit = 95.0;  ///< per unit weighted channel sum
    double static_mw_per_sq_in = 1.5;
  };

  OledPowerModel() : OledPowerModel(Coefficients{}) {}
  explicit OledPowerModel(Coefficients coefficients)
      : coefficients_(coefficients) {}

  /// Panel power for the given content at the spec's brightness setting.
  common::Milliwatts power(const DisplaySpec& spec,
                           const FrameStats& stats) const;

  /// The content-independent factor of the emission term:
  /// (coefficient * megapixels) * brightness, brightness clamped to [0, 1].
  double emission_factor(const DisplaySpec& spec) const {
    const double megapixels =
        static_cast<double>(spec.pixel_count()) / 1.0e6;
    return coefficients_.mw_per_megapixel_unit * megapixels *
           std::clamp(spec.brightness, 0.0, 1.0);
  }

  /// The static term on a panel of `area_sq_in` square inches.
  double static_mw(double area_sq_in) const {
    return coefficients_.static_mw_per_sq_in * area_sq_in;
  }

  /// power() from a panel's emission factor and static term, for callers
  /// that compute both once per panel.
  double power_mw(double emission_factor, double static_mw,
                  const FrameStats& stats) const {
    const FrameStats s = stats.clamped();
    const double weighted = coefficients_.red_weight * s.mean_r +
                            coefficients_.green_weight * s.mean_g +
                            coefficients_.blue_weight * s.mean_b;
    return emission_factor * weighted + static_mw;
  }

  const Coefficients& coefficients() const { return coefficients_; }

 private:
  Coefficients coefficients_;
};

/// Whole-device playback power (display + SoC video decode + radio + base),
/// the model behind the paper's p_{n,m}(kappa).  Also produces the Fig. 1
/// component breakdown.
class DevicePowerModel {
 public:
  struct NonDisplayCoefficients {
    // Calibrated to 2019-era handsets with hardware decode over WiFi so
    // that the display is the dominant component during playback (Fig. 1).
    double base_mw = 40.0;          ///< RAM, sensors, OS housekeeping
    double cpu_decode_mw = 80.0;    ///< hardware decode + playback stack
    double cpu_per_mbps_mw = 4.0;   ///< decode cost grows with bitrate
    double radio_mw = 90.0;         ///< streaming over WiFi/cellular
    double radio_per_mbps_mw = 6.0;
  };

  DevicePowerModel() = default;
  DevicePowerModel(LcdPowerModel lcd, OledPowerModel oled,
                   NonDisplayCoefficients rest)
      : lcd_(lcd), oled_(oled), rest_(rest) {}

  /// A panel's content-independent power terms.  A slot prices every
  /// chunk on the same panel (SIV-B), so callers compute these once per
  /// spec; pricing from them is bit-identical to pricing from the spec.
  struct Panel {
    DisplayType type = DisplayType::kOled;
    double area_sq_in = 0.0;
    double lcd_mw = 0.0;  ///< LCD: panel power at the user's brightness
    double emission_factor = 0.0;  ///< OLED: see OledPowerModel
    double static_mw = 0.0;        ///< OLED: static term
  };
  Panel panel(const DisplaySpec& spec) const;

  /// Per-component split for Fig. 1.
  struct Breakdown {
    common::Milliwatts display;
    common::Milliwatts cpu;
    common::Milliwatts radio;
    common::Milliwatts base;
    common::Milliwatts total() const {
      return display + cpu + radio + base;
    }
    double display_fraction() const;
  };

  /// Display-only power for this content.
  common::Milliwatts display_power(const DisplaySpec& spec,
                                   const FrameStats& stats) const;
  double display_mw(const Panel& panel, const FrameStats& stats) const {
    // Without a content-adaptive transform, an LCD backlight tracks the
    // user's brightness setting regardless of content.
    return panel.type == DisplayType::kLcd
               ? panel.lcd_mw
               : oled_.power_mw(panel.emission_factor, panel.static_mw,
                                stats);
  }

  /// Total device power while streaming this content at `bitrate_mbps`.
  common::Milliwatts playback_power(const DisplaySpec& spec,
                                    const FrameStats& stats,
                                    double bitrate_mbps) const;
  double playback_mw(const Panel& panel, const FrameStats& stats,
                     double bitrate_mbps) const {
    return breakdown(panel, stats, bitrate_mbps).total().value;
  }

  Breakdown breakdown(const DisplaySpec& spec, const FrameStats& stats,
                      double bitrate_mbps) const;
  Breakdown breakdown(const Panel& panel, const FrameStats& stats,
                      double bitrate_mbps) const {
    bitrate_mbps = std::max(bitrate_mbps, 0.0);
    Breakdown split;
    split.display = {display_mw(panel, stats)};
    split.cpu = {rest_.cpu_decode_mw + rest_.cpu_per_mbps_mw * bitrate_mbps};
    split.radio = {rest_.radio_mw + rest_.radio_per_mbps_mw * bitrate_mbps};
    split.base = {rest_.base_mw};
    return split;
  }

  const LcdPowerModel& lcd() const { return lcd_; }
  const OledPowerModel& oled() const { return oled_; }
  const NonDisplayCoefficients& rest() const { return rest_; }

 private:
  LcdPowerModel lcd_;
  OledPowerModel oled_;
  NonDisplayCoefficients rest_;
};

/// A catalog of representative handset profiles used to randomly assign
/// display specs to emulated devices (SVI-B: "we assign values for each of
/// them by randomly choosing from available display resolutions").
class DeviceCatalog {
 public:
  struct Profile {
    std::string name;
    DisplaySpec spec;
    double battery_mwh;  ///< nominal full-charge energy
  };

  /// Built-in catalog spanning LCD and OLED handsets of 2019-era specs.
  static const DeviceCatalog& standard();

  explicit DeviceCatalog(std::vector<Profile> profiles);

  const Profile& sample(common::Rng& rng) const;
  const Profile& at(std::size_t i) const { return profiles_[i]; }
  std::size_t size() const { return profiles_.size(); }

 private:
  std::vector<Profile> profiles_;
};

}  // namespace lpvs::display
