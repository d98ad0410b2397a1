#include "lpvs/battery/battery.hpp"

#include <algorithm>

namespace lpvs::battery {

Battery::Battery(common::MilliwattHours capacity, double initial_fraction)
    : capacity_(capacity),
      remaining_{capacity.value * std::clamp(initial_fraction, 0.0, 1.0)} {
  assert(capacity.value > 0.0);
}

common::MilliwattHours Battery::drain(common::Milliwatts power,
                                      common::Seconds duration) {
  return drain_energy(common::energy(power, duration));
}

common::MilliwattHours Battery::drain_energy(common::MilliwattHours amount) {
  const double drawn =
      std::clamp(amount.value, 0.0, std::max(remaining_.value, 0.0));
  remaining_.value -= drawn;
  return {drawn};
}

common::Seconds Battery::time_to_empty(common::Milliwatts power) const {
  if (power.value <= 0.0) return {1e18};  // effectively forever
  return {remaining_.value / power.value * 3600.0};
}

}  // namespace lpvs::battery
