// Per-pixel reference implementations (library lpvs_reference_models; no
// src library links it).
//
// The statistics-based transforms in transform.hpp predict power from
// channel means; this module performs the actual per-pixel work those
// predictions summarize — the computation that is "operated on a per-pixel
// basis and thus computation intensive" (SII-B), i.e. exactly what LPVS
// offloads from phones to the edge server.
//
// Because the OLED power model is linear in per-pixel channel values, the
// per-pixel power sum must equal the stats-based model evaluated on the
// frame's measured statistics — a property the test suite checks exactly.
#pragma once

#include "lpvs/common/units.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/media/frame.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::transform {

/// Exact per-pixel OLED panel power of a frame: the Riemann sum the
/// stats-based OledPowerModel::power integrates in closed form.
common::Milliwatts oled_power_per_pixel(const display::OledPowerModel& model,
                                        const display::DisplaySpec& spec,
                                        const media::Frame& frame);

/// Applies the OLED color transform pixel-by-pixel (linear-light domain):
/// scales each pixel's linear channels (darken, blue/red attenuation) and
/// re-encodes to sRGB.
media::Frame apply_color_transform(const media::Frame& frame,
                                   const QualityBudget& budget);

}  // namespace lpvs::transform
