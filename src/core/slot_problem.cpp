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

// The per-chunk steps below are the only place each formula is written.
// A walk that needs both trajectories calls its step twice per chunk with
// separate state, so each trajectory sees the same operations in the same
// order as a walk of its own, and so the same bits.

/// One chunk of the forward walk (3)/(5): the objective terms of (8a) at
/// e(kappa), then the battery update.  `eval.final_energy_mwh` carries
/// e(kappa) during the walk and ends as e(K_m + 1).  Declared inline so
/// g++ inlines it into the paired walk, whose two trajectories then
/// overlap; out of line they run one call after the other.
inline void forward_step(DeviceEvaluation& eval, double psi,
                         double duration_s, double capacity_mwh,
                         const survey::AnxietyModel& anxiety) {
  double& energy = eval.final_energy_mwh;
  if (energy <= 0.0) eval.battery_survives = false;
  eval.sum_psi_mw += psi;
  // phi is evaluated at the energy status *before* playing the chunk,
  // matching e_{n,m}(kappa) in objective (8a).
  eval.sum_anxiety += anxiety(energy / capacity_mwh);
  const double spend = chunk_energy_mwh(psi, duration_s);
  const double drawn = std::min(spend, std::max(energy, 0.0));
  eval.energy_spent_mwh += drawn;
  energy -= spend;
  energy = std::max(energy, 0.0);
}

/// One trajectory of objective (13): every e(kappa) replaced by
/// e(1) - sum_{i<kappa} psi(i), so no intermediate energy state is
/// materialized.
struct CompactedTrajectory {
  double objective = 0.0;
  double spent_mwh = 0.0;

  void step(const DeviceSlotInput& device, double psi, double duration_s,
            const survey::AnxietyModel& anxiety, double lambda) {
    const double predicted = device.initial_energy_mwh - spent_mwh;
    objective +=
        psi + lambda * anxiety(std::max(predicted, 0.0) /
                               device.battery_capacity_mwh);
    spent_mwh += chunk_energy_mwh(psi, duration_s);
  }
};

/// The per-chunk sums behind the Phase-1 weight and constraint (11), in
/// mWh, from one walk over the chunks.
struct EnergySums {
  double untransformed = 0.0;  ///< sum p(kappa) Delta
  double saved = 0.0;          ///< sum gamma p(kappa) Delta: (11)'s rhs
  double weighted = 0.0;       ///< sum (K_m - kappa) psi(kappa) Delta, (10d)
};

EnergySums energy_sums(const DeviceSlotInput& device, bool transformed) {
  const auto k_m = static_cast<double>(device.chunk_count());
  EnergySums sums;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    const double duration_s = device.chunk_durations_s[kappa];
    const double p_mwh =
        chunk_energy_mwh(device.power_rates_mw[kappa], duration_s);
    sums.untransformed += p_mwh;
    sums.saved += device.gamma * p_mwh;
    const double psi_mwh = chunk_energy_mwh(
        effective_power_mw(device, kappa, transformed), duration_s);
    // kappa is 1-indexed in the paper; entry i here is chunk i+1.
    sums.weighted += (k_m - static_cast<double>(kappa + 1)) * psi_mwh;
  }
  return sums;
}

/// Equation (10d): K_m * e(1) - sum_kappa (K_m - kappa) psi(kappa) Delta.
double closed_form(const DeviceSlotInput& device, const EnergySums& sums) {
  const auto k_m = static_cast<double>(device.chunk_count());
  return k_m * device.initial_energy_mwh - sums.weighted;
}

/// Constraint (11) under x_n = 1, all terms in mWh:
///   K_m e(1) - sum (K_m - kappa) psi(kappa)Delta  >=  gamma sum p(kappa)Delta
/// `sums` must come from the transformed walk.
double constraint_slack(const DeviceSlotInput& device,
                        const EnergySums& sums) {
  return closed_form(device, sums) - sums.saved;
}

bool eligible(const DeviceSlotInput& device, const EnergySums& sums) {
  if (device.chunk_count() == 0) return false;
  if (device.gamma <= 0.0) return false;
  return constraint_slack(device, sums) >= 0.0;
}

}  // namespace

DeviceEvaluation evaluate_forward(const DeviceSlotInput& device,
                                  bool transformed,
                                  const survey::AnxietyModel& anxiety) {
  assert(device.power_rates_mw.size() == device.chunk_durations_s.size());
  assert(device.battery_capacity_mwh > 0.0);
  DeviceEvaluation eval;
  eval.final_energy_mwh = device.initial_energy_mwh;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    forward_step(eval, effective_power_mw(device, kappa, transformed),
                 device.chunk_durations_s[kappa],
                 device.battery_capacity_mwh, anxiety);
  }
  return eval;
}

DeviceEvaluationPair evaluate_forward_pair(
    const DeviceSlotInput& device, const survey::AnxietyModel& anxiety) {
  assert(device.power_rates_mw.size() == device.chunk_durations_s.size());
  assert(device.battery_capacity_mwh > 0.0);
  DeviceEvaluationPair pair;
  pair.untransformed.final_energy_mwh = device.initial_energy_mwh;
  pair.transformed.final_energy_mwh = device.initial_energy_mwh;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    const double duration_s = device.chunk_durations_s[kappa];
    forward_step(pair.untransformed,
                 effective_power_mw(device, kappa, /*transformed=*/false),
                 duration_s, device.battery_capacity_mwh, anxiety);
    forward_step(pair.transformed,
                 effective_power_mw(device, kappa, /*transformed=*/true),
                 duration_s, device.battery_capacity_mwh, anxiety);
  }
  return pair;
}

double compacted_objective(const DeviceSlotInput& device, bool transformed,
                           const survey::AnxietyModel& anxiety,
                           double lambda) {
  CompactedTrajectory trajectory;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    trajectory.step(device, effective_power_mw(device, kappa, transformed),
                    device.chunk_durations_s[kappa], anxiety, lambda);
  }
  return trajectory.objective;
}

double transform_benefit(const DeviceSlotInput& device,
                         const survey::AnxietyModel& anxiety, double lambda) {
  CompactedTrajectory untransformed;
  CompactedTrajectory transformed;
  for (std::size_t kappa = 0; kappa < device.chunk_count(); ++kappa) {
    const double duration_s = device.chunk_durations_s[kappa];
    untransformed.step(
        device, effective_power_mw(device, kappa, /*transformed=*/false),
        duration_s, anxiety, lambda);
    transformed.step(device,
                     effective_power_mw(device, kappa, /*transformed=*/true),
                     duration_s, anxiety, lambda);
  }
  return untransformed.objective - transformed.objective;
}

double energy_sum_closed_form(const DeviceSlotInput& device,
                              bool transformed) {
  return closed_form(device, energy_sums(device, transformed));
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
  return constraint_slack(device, energy_sums(device, /*transformed=*/true));
}

bool eligible_for_transform(const DeviceSlotInput& device) {
  return eligible(device, energy_sums(device, /*transformed=*/true));
}

double untransformed_energy_mwh(const DeviceSlotInput& device) {
  return energy_sums(device, /*transformed=*/true).untransformed;
}

Phase1Terms phase1_terms(const DeviceSlotInput& device) {
  const EnergySums sums = energy_sums(device, /*transformed=*/true);
  return {sums.untransformed, eligible(device, sums)};
}

}  // namespace lpvs::core
