// Battery model (SIV-C).  Tracks remaining energy of a device, supplies the
// energy status e_{n,m}(kappa) driving the anxiety function, and enforces
// the physical invariants the property tests check: level in [0, 1],
// monotone non-increasing during playback.
#pragma once

#include <algorithm>
#include <cassert>

#include "lpvs/common/units.hpp"

namespace lpvs::battery {

class Battery {
 public:
  Battery() = default;

  /// `capacity` is the full-charge energy; `initial_fraction` in [0, 1].
  Battery(common::MilliwattHours capacity, double initial_fraction);

  /// Remaining energy.
  common::MilliwattHours remaining() const { return remaining_; }
  common::MilliwattHours capacity() const { return capacity_; }

  /// Battery level as a fraction in [0, 1] (the paper's energy status).
  double fraction() const {
    if (capacity_.value <= 0.0) return 0.0;
    return std::clamp(remaining_.value / capacity_.value, 0.0, 1.0);
  }

  /// Battery level as a percentage in [0, 100].
  double percent() const { return fraction() * 100.0; }

  bool empty() const { return remaining_.value <= 0.0; }

  /// True when the level is at or below the given percentage threshold
  /// (the paper calls <= 40% users "low-battery users" in Fig. 9).
  bool at_or_below_percent(double threshold) const {
    return percent() <= threshold;
  }

  /// Drains energy for drawing `power` over `duration`; clamps at zero and
  /// reports the energy actually drawn (less than requested only if the
  /// battery died mid-interval).
  common::MilliwattHours drain(common::Milliwatts power,
                               common::Seconds duration);

  /// Direct energy withdrawal (used by the compacted-model cross-checks).
  common::MilliwattHours drain_energy(common::MilliwattHours amount);

  /// How long the battery lasts at a constant draw.
  common::Seconds time_to_empty(common::Milliwatts power) const;

 private:
  common::MilliwattHours capacity_{10000.0};
  common::MilliwattHours remaining_{5000.0};
};

}  // namespace lpvs::battery
