#include "lpvs/display/display.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

namespace lpvs::display {

std::string to_string(DisplayType type) {
  return type == DisplayType::kLcd ? "LCD" : "OLED";
}

double DisplaySpec::area_sq_inches() const {
  assert(width_px > 0 && height_px > 0);
  const double aspect =
      static_cast<double>(std::max(width_px, height_px)) /
      static_cast<double>(std::min(width_px, height_px));
  return diagonal_inches * diagonal_inches * aspect / (1.0 + aspect * aspect);
}

common::Milliwatts LcdPowerModel::power(const DisplaySpec& spec,
                                        double backlight_level) const {
  return {power_mw(spec.area_sq_inches(), backlight_level)};
}

common::Milliwatts OledPowerModel::power(const DisplaySpec& spec,
                                         const FrameStats& stats) const {
  return {power_mw(emission_factor(spec), static_mw(spec.area_sq_inches()),
                   stats)};
}

DevicePowerModel::Panel DevicePowerModel::panel(
    const DisplaySpec& spec) const {
  Panel panel;
  panel.type = spec.type;
  panel.area_sq_in = spec.area_sq_inches();
  if (spec.type == DisplayType::kLcd) {
    panel.lcd_mw = lcd_.power_mw(panel.area_sq_in, spec.brightness);
  } else {
    panel.emission_factor = oled_.emission_factor(spec);
    panel.static_mw = oled_.static_mw(panel.area_sq_in);
  }
  return panel;
}

common::Milliwatts DevicePowerModel::display_power(
    const DisplaySpec& spec, const FrameStats& stats) const {
  return {display_mw(panel(spec), stats)};
}

common::Milliwatts DevicePowerModel::playback_power(
    const DisplaySpec& spec, const FrameStats& stats,
    double bitrate_mbps) const {
  return breakdown(spec, stats, bitrate_mbps).total();
}

DevicePowerModel::Breakdown DevicePowerModel::breakdown(
    const DisplaySpec& spec, const FrameStats& stats,
    double bitrate_mbps) const {
  return breakdown(panel(spec), stats, bitrate_mbps);
}

double DevicePowerModel::Breakdown::display_fraction() const {
  const double t = total().value;
  return t > 0.0 ? display.value / t : 0.0;
}

DeviceCatalog::DeviceCatalog(std::vector<Profile> profiles)
    : profiles_(std::move(profiles)) {
  assert(!profiles_.empty());
}

const DeviceCatalog::Profile& DeviceCatalog::sample(common::Rng& rng) const {
  const auto idx = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(profiles_.size()) - 1));
  return profiles_[idx];
}

const DeviceCatalog& DeviceCatalog::standard() {
  static const DeviceCatalog catalog({
      // name, {type, diagonal, w, h, max_nits, brightness}, battery_mwh
      {"budget-lcd-hd",
       {DisplayType::kLcd, 5.5, 720, 1440, 450.0, 0.8},
       11400.0},
      {"mid-lcd-fhd",
       {DisplayType::kLcd, 6.1, 1080, 2340, 500.0, 0.8},
       13300.0},
      {"large-lcd-fhd",
       {DisplayType::kLcd, 6.5, 1080, 2400, 480.0, 0.8},
       15200.0},
      {"tablet-lcd-qhd",
       {DisplayType::kLcd, 8.0, 1600, 2560, 420.0, 0.75},
       19000.0},
      {"flagship-oled-fhd",
       {DisplayType::kOled, 6.1, 1080, 2340, 700.0, 0.8},
       12540.0},
      {"flagship-oled-qhd",
       {DisplayType::kOled, 6.4, 1440, 3040, 800.0, 0.8},
       14820.0},
      {"compact-oled",
       {DisplayType::kOled, 5.8, 1080, 2244, 650.0, 0.8},
       10260.0},
      {"large-oled-fhd",
       {DisplayType::kOled, 6.7, 1080, 2400, 750.0, 0.85},
       17100.0},
  });
  return catalog;
}

}  // namespace lpvs::display
