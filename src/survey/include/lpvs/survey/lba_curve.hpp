// LBA curve extraction (SIII-B) and the anxiety model phi(.) consumed by the
// LPVS scheduler (SIV-C).
//
// The paper's four-step procedure:
//   (1) initialize 100 empty bins for battery levels [1, 100];
//   (2) for each answer a, add one to every bin in [1, a];
//   (3) repeat for all answers, yielding a declining discrete curve;
//   (4) normalize the 100 cumulative counts to [0, 1].
// The result is anxiety degree vs battery level — equivalently the
// complementary CDF of the charge-level answers.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "lpvs/common/piecewise.hpp"
#include "lpvs/survey/participant.hpp"

namespace lpvs::survey {

/// Implements the exact 4-step binning procedure.
class LbaCurveExtractor {
 public:
  static constexpr int kLevels = 100;

  /// Feed one charge-level answer (clamped into [1, 100]).
  void add_answer(int charge_level);

  /// Feed a whole population's answers.
  void add_population(std::span<const Participant> population);

  /// Raw (un-normalized) bin counts; bins()[i] covers battery level i+1.
  const std::array<long, kLevels>& bins() const { return bins_; }
  long answers() const { return answers_; }

  /// Step (4): normalized anxiety degrees, one per battery level 1..100.
  std::vector<double> normalized() const;

  /// The extracted curve as a piecewise-linear function of battery level
  /// (x in [1, 100], y = anxiety degree in [0, 1]).
  common::PiecewiseLinear extract() const;

 private:
  std::array<long, kLevels> bins_{};
  long answers_ = 0;
};

/// Shape diagnostics used to validate the reproduction against Fig. 2.
struct CurveShape {
  bool non_increasing = false;     ///< anxiety never grows with battery level
  bool convex_above_20 = false;    ///< below the chord on [20, 100]
  bool concave_below_20 = false;   ///< above the chord on [1, 20]
  double jump_at_20 = 0.0;         ///< anxiety(20) - anxiety(21)
  double anxiety_at_full = 0.0;    ///< anxiety(100)
  double anxiety_at_empty = 0.0;   ///< anxiety(1); 1.0 by construction
};
CurveShape analyze_curve(const common::PiecewiseLinear& curve);

/// The anxiety function phi(.) of SIV-C: maps a battery *fraction* in
/// [0, 1] (the emulator's energy-status representation) to an anxiety
/// degree in [0, 1] using an extracted LBA curve.
class AnxietyModel {
 public:
  explicit AnxietyModel(common::PiecewiseLinear curve);

  /// Anxiety degree for battery fraction `energy_fraction` in [0, 1].
  /// NaN in gives NaN out.
  double operator()(double energy_fraction) const {
    return at_percent(energy_fraction * 100.0);
  }

  /// Anxiety degree at an integer battery percentage in [0, 100].
  double at_percent(double percent) const {
    const double anxiety = curve_(std::clamp(percent, 0.0, 100.0));
    return std::clamp(anxiety, 0.0, 1.0);
  }

  const common::PiecewiseLinear& curve() const { return curve_; }

  /// Reference curve calibrated to the published Fig. 2 (used when a test
  /// or bench does not want to run the survey pipeline first).
  static AnxietyModel reference();

 private:
  common::PiecewiseLinear curve_;
};

}  // namespace lpvs::survey
