// The per-slot scheduling problem (SIV) and its evaluation machinery (SV-B).
//
// At a scheduling point the LPVS scheduler sees, for each device n of the
// virtual cluster: the power rates p_n(kappa) of the chunks available for
// the coming slot, the initial energy status e_n(1), the current Bayesian
// estimate of gamma_n, and the edge resource costs g/h of transforming the
// device's stream.  The joint objective (8a) couples power and anxiety
// through the battery trajectory; "information compacting" (SV-B) rewrites
// both the energy-feasibility constraint and the objective so that no
// intermediate energy status appears.  Both forms are implemented here and
// property-tested for exact equivalence.
#pragma once

#include <vector>

#include "lpvs/common/units.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::core {

/// Everything the scheduler knows about one device at a scheduling point.
struct DeviceSlotInput {
  common::DeviceId id;
  /// p_n(kappa) for the available chunks, milliwatts.  Size K_m.
  std::vector<double> power_rates_mw;
  /// Delta_kappa, seconds, same size as power_rates_mw.
  std::vector<double> chunk_durations_s;
  /// e_n(1): remaining battery energy at the slot start, mWh.
  double initial_energy_mwh = 5000.0;
  /// Full-charge capacity, mWh (converts energy to the fraction phi eats).
  double battery_capacity_mwh = 13000.0;
  /// Current estimate E[gamma_n]: fraction of device power saved when the
  /// transform is on (see transform.hpp for the gamma semantics note).
  double gamma = 0.31;
  /// g(d_n(t)), compute units; h(d_n(t)), megabytes.
  double compute_cost = 0.45;
  double storage_cost = 75.0;
  /// SLA tier weight (Remark 3: lambda is set by the provider "based on
  /// ... specific service-level agreements with the customers").  The
  /// effective anxiety regularizer for this device is lambda * sla_weight;
  /// 1.0 = standard tier, >1 = premium subscribers whose anxiety the
  /// provider weighs more.
  double sla_weight = 1.0;

  std::size_t chunk_count() const { return power_rates_mw.size(); }
};

/// One slot's joint problem over the whole virtual cluster.
struct SlotProblem {
  std::vector<DeviceSlotInput> devices;
  double compute_capacity = 45.0;   ///< C in constraint (6)
  double storage_capacity = 32768;  ///< S in constraint (7)
  /// Regularization lambda of objective (8a), in milliwatt-equivalents per
  /// unit anxiety (the power term is summed in mW, so lambda ~ 10^3 makes
  /// the two terms comparable; Remark 3 leaves the choice to the provider).
  double lambda = 2000.0;
};

/// Per-device outcome of playing the slot with or without the transform.
struct DeviceEvaluation {
  double sum_psi_mw = 0.0;        ///< sum over chunks of psi(kappa)
  double sum_anxiety = 0.0;       ///< sum over chunks of phi(e(kappa))
  double final_energy_mwh = 0.0;  ///< e(K_m + 1), floored at zero
  double energy_spent_mwh = 0.0;
  bool battery_survives = true;   ///< no chunk started with an empty battery

  /// The device's contribution to objective (8a)/(13).
  double objective(double lambda) const {
    return sum_psi_mw + lambda * sum_anxiety;
  }
};

/// Forward (chunk-by-chunk) evaluation implementing (3), (5) and the
/// objective terms of (8a) literally.  `transformed` is x_n.
DeviceEvaluation evaluate_forward(const DeviceSlotInput& device,
                                  bool transformed,
                                  const survey::AnxietyModel& anxiety);

/// Both trajectories of one device from one walk over its chunks, each the
/// same bits evaluate_forward returns for it.  score_selection uses it for
/// a selected device, which needs the untransformed baseline as well.
struct DeviceEvaluationPair {
  DeviceEvaluation untransformed;  ///< evaluate_forward(device, false, .)
  DeviceEvaluation transformed;    ///< evaluate_forward(device, true, .)
};
DeviceEvaluationPair evaluate_forward_pair(
    const DeviceSlotInput& device, const survey::AnxietyModel& anxiety);

/// Compacted-form objective term of (13) for this device: identical value
/// to evaluate_forward(...).objective(lambda) — the equivalence the paper
/// proves via (12) and that our property tests check numerically.
double compacted_objective(const DeviceSlotInput& device, bool transformed,
                           const survey::AnxietyModel& anxiety,
                           double lambda);

/// How much serving this device transformed lowers its (13) term:
/// compacted_objective(untransformed) - compacted_objective(transformed),
/// with `lambda` the device's effective regularizer (lambda * sla_weight).
/// One walk carries both trajectories; the difference is bit-identical to
/// the two calls'.
/// Phase-2's swap rule, the joint-optimal program and the joint ABR
/// program all weigh a device's transform by this one number.
double transform_benefit(const DeviceSlotInput& device,
                         const survey::AnxietyModel& anxiety, double lambda);

/// Left-hand side minus right-hand side of the compacted energy constraint
/// (11); non-negative means the device can afford the slot when
/// transformed.  Exposed separately so tests can check the telescoped
/// identity (10d) against the forward simulation.
double compacted_constraint_slack(const DeviceSlotInput& device);

/// Sum over kappa of e(kappa) computed by the closed form (10d).
double energy_sum_closed_form(const DeviceSlotInput& device,
                              bool transformed);

/// Sum over kappa of e(kappa) computed by forward simulation of (5),
/// *without* flooring at zero (the algebraic identity the paper uses).
double energy_sum_forward(const DeviceSlotInput& device, bool transformed);

/// Eligibility filter for Phase-1: the device has chunks to play, a
/// meaningful gamma, and constraint (11) holds under x_n = 1.
bool eligible_for_transform(const DeviceSlotInput& device);

/// Total energy (mWh) the device would spend on the slot untransformed.
double untransformed_energy_mwh(const DeviceSlotInput& device);

/// What the Phase-1 program needs of one device, from one walk over its
/// chunks: the same bits as the two functions above.
struct Phase1Terms {
  double untransformed_energy_mwh = 0.0;  ///< untransformed_energy_mwh()
  bool eligible = false;                  ///< eligible_for_transform()
};
Phase1Terms phase1_terms(const DeviceSlotInput& device);

}  // namespace lpvs::core
