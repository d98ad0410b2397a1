#include "lpvs/core/slot_problem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lpvs::core {
namespace {

/// psi_{n,m}(kappa) of equation (3) under our gamma-as-saving semantics:
/// the transform removes a gamma fraction of the device's power draw.
double effective_power_mw(const DeviceSlotInput& device, std::size_t kappa,
                          bool transformed) {
  const double p = device.power_rates_mw[kappa];
  return transformed ? (1.0 - device.gamma) * p : p;
}

double chunk_energy_mwh(double power_mw, double duration_s) {
  return power_mw * duration_s / 3600.0;
}

}  // namespace

DeviceEvaluation evaluate_forward(const DeviceSlotInput& device,
                                  bool transformed,
                                  const survey::AnxietyModel& anxiety) {
  assert(device.power_rates_mw.size() == device.chunk_durations_s.size());
  assert(device.battery_capacity_mwh > 0.0);
  DeviceEvaluation eval;
  double energy = device.initial_energy_mwh;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    if (energy <= 0.0) eval.battery_survives = false;
    const double psi = effective_power_mw(device, kappa, transformed);
    eval.sum_psi_mw += psi;
    // phi is evaluated at the energy status *before* playing the chunk,
    // matching e_{n,m}(kappa) in objective (8a).
    eval.sum_anxiety += anxiety(energy / device.battery_capacity_mwh);
    const double spend =
        chunk_energy_mwh(psi, device.chunk_durations_s[kappa]);
    const double drawn = std::min(spend, std::max(energy, 0.0));
    eval.energy_spent_mwh += drawn;
    energy -= spend;
    energy = std::max(energy, 0.0);
  }
  eval.final_energy_mwh = energy;
  return eval;
}

double compacted_objective(const DeviceSlotInput& device, bool transformed,
                           const survey::AnxietyModel& anxiety,
                           double lambda) {
  // Equation (13): every e(kappa) replaced by e(1) - sum_{i<kappa} psi(i),
  // so no intermediate energy state is materialized.
  double objective = 0.0;
  double spent_mwh = 0.0;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    const double psi = effective_power_mw(device, kappa, transformed);
    const double predicted = device.initial_energy_mwh - spent_mwh;
    objective +=
        psi + lambda * anxiety(std::max(predicted, 0.0) /
                               device.battery_capacity_mwh);
    spent_mwh += chunk_energy_mwh(psi, device.chunk_durations_s[kappa]);
  }
  return objective;
}

double transform_benefit(const DeviceSlotInput& device,
                         const survey::AnxietyModel& anxiety, double lambda) {
  return compacted_objective(device, false, anxiety, lambda) -
         compacted_objective(device, true, anxiety, lambda);
}

double energy_sum_closed_form(const DeviceSlotInput& device,
                              bool transformed) {
  // Equation (10d): K_m * e(1) - sum_kappa (K_m - kappa) psi(kappa) Delta.
  const auto k_m = static_cast<double>(device.chunk_count());
  double weighted = 0.0;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    const double psi_mwh = chunk_energy_mwh(
        effective_power_mw(device, kappa, transformed),
        device.chunk_durations_s[kappa]);
    // kappa is 1-indexed in the paper; entry i here is chunk i+1.
    weighted += (k_m - static_cast<double>(kappa + 1)) * psi_mwh;
  }
  return k_m * device.initial_energy_mwh - weighted;
}

double energy_sum_forward(const DeviceSlotInput& device, bool transformed) {
  double energy = device.initial_energy_mwh;
  double total = 0.0;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    total += energy;  // e(kappa) before playing chunk kappa
    energy -= chunk_energy_mwh(
        effective_power_mw(device, kappa, transformed),
        device.chunk_durations_s[kappa]);
  }
  return total;
}

double compacted_constraint_slack(const DeviceSlotInput& device) {
  // Constraint (11) under x_n = 1, all terms in mWh:
  //   K_m e(1) - sum (K_m - kappa) psi(kappa)Delta  >=  gamma sum p(kappa)Delta
  double rhs = 0.0;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    rhs += device.gamma * chunk_energy_mwh(device.power_rates_mw[kappa],
                                           device.chunk_durations_s[kappa]);
  }
  return energy_sum_closed_form(device, /*transformed=*/true) - rhs;
}

bool eligible_for_transform(const DeviceSlotInput& device) {
  if (device.chunk_count() == 0) return false;
  if (device.gamma <= 0.0) return false;
  return compacted_constraint_slack(device) >= 0.0;
}

double untransformed_energy_mwh(const DeviceSlotInput& device) {
  double total = 0.0;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    total += chunk_energy_mwh(device.power_rates_mw[kappa],
                              device.chunk_durations_s[kappa]);
  }
  return total;
}

}  // namespace lpvs::core
