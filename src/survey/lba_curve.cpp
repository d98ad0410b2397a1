#include "lpvs/survey/lba_curve.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lpvs::survey {

void LbaCurveExtractor::add_answer(int charge_level) {
  charge_level = std::clamp(charge_level, 1, kLevels);
  // Step (2): one increment for every bin in [1, a].  Kept as the literal
  // loop from the paper; extraction runs once per experiment so the O(100)
  // inner loop is irrelevant.
  for (int level = 1; level <= charge_level; ++level) {
    ++bins_[static_cast<std::size_t>(level - 1)];
  }
  ++answers_;
}

void LbaCurveExtractor::add_population(
    std::span<const Participant> population) {
  for (const Participant& p : population) add_answer(p.charge_level);
}

std::vector<double> LbaCurveExtractor::normalized() const {
  std::vector<double> degrees(kLevels, 0.0);
  const long peak = *std::max_element(bins_.begin(), bins_.end());
  if (peak == 0) return degrees;
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    degrees[i] = static_cast<double>(bins_[i]) / static_cast<double>(peak);
  }
  return degrees;
}

common::PiecewiseLinear LbaCurveExtractor::extract() const {
  return common::PiecewiseLinear::from_uniform_samples(normalized(),
                                                       /*x0=*/1.0,
                                                       /*dx=*/1.0);
}

CurveShape analyze_curve(const common::PiecewiseLinear& curve) {
  CurveShape shape;
  shape.non_increasing = curve.non_increasing(1e-9);
  shape.anxiety_at_full = curve(100.0);
  shape.anxiety_at_empty = curve(1.0);
  shape.jump_at_20 = curve(20.0) - curve(21.0);

  constexpr double kTol = 0.02;
  const auto chord = [&](double x0, double x1, double x) {
    const double t = (x - x0) / (x1 - x0);
    return curve(x0) + t * (curve(x1) - curve(x0));
  };

  shape.convex_above_20 = true;
  for (double x = 30.0; x <= 90.0; x += 10.0) {
    if (curve(x) > chord(20.0, 100.0, x) + kTol) {
      shape.convex_above_20 = false;
      break;
    }
  }
  shape.concave_below_20 = true;
  for (double x : {5.0, 10.0, 15.0}) {
    if (curve(x) < chord(1.0, 20.0, x) - kTol) {
      shape.concave_below_20 = false;
      break;
    }
  }
  return shape;
}

AnxietyModel::AnxietyModel(common::PiecewiseLinear curve)
    : curve_(std::move(curve)) {
  assert(!curve_.empty());
}

AnxietyModel AnxietyModel::reference() {
  // Hand-calibrated knots matching the published Fig. 2: unit anxiety at an
  // empty battery, concave decline to the 20% warning level, a sharp drop
  // just above 20 (the answer atom), then a convex tail to ~0 at full.
  std::vector<double> xs = {1,  5,    10,   15,   19,   20,   21,  25,
                            30, 40,   50,   60,   70,   80,   90,  100};
  std::vector<double> ys = {1.00, 0.985, 0.95, 0.90, 0.855, 0.84, 0.58, 0.50,
                            0.45, 0.33,  0.24, 0.16, 0.10,  0.055, 0.03, 0.015};
  return AnxietyModel(common::PiecewiseLinear(std::move(xs), std::move(ys)));
}

}  // namespace lpvs::survey
