// Piecewise-linear function on a set of (x, y) knots.  This is the carrier
// type for the empirical LBA curve phi(.) of Fig. 2: the survey module
// extracts 100 knots (battery level 1..100 -> anxiety degree) and the LPVS
// scheduler evaluates / integrates the curve when scoring schedules.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace lpvs::common {

/// Monotone-x piecewise-linear interpolant.  Evaluation outside the knot
/// range clamps to the boundary values (the physically meaningful behaviour
/// for an anxiety curve defined on battery levels [0, 100]).
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// Knots must be strictly increasing in x; asserts in debug builds.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  /// Convenience: y sampled at x = 0, 1, ..., ys.size()-1.
  static PiecewiseLinear from_uniform_samples(std::vector<double> ys,
                                              double x0 = 0.0,
                                              double dx = 1.0);

  /// Interpolated y at x.  NaN in gives NaN out.  Defined inline below:
  /// the scheduler prices every chunk of every device through it.
  double operator()(double x) const;

  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  std::span<const double> xs() const { return xs_; }
  std::span<const double> ys() const { return ys_; }
  double x_min() const { return xs_.front(); }
  double x_max() const { return xs_.back(); }

  /// True iff y is non-increasing as x increases (the LBA curve property:
  /// anxiety never grows when battery level grows).
  bool non_increasing(double tol = 1e-12) const;

  /// Trapezoidal integral over [a, b] (clamped to the knot range).
  double integrate(double a, double b) const;

  /// Numerical derivative (forward difference on the knot grid).
  double slope_at(double x) const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

inline double PiecewiseLinear::operator()(double x) const {
  assert(!xs_.empty());
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  if (std::isnan(x)) return x;
  // Here x_min < x < x_max, so there are at least two knots.  Branchless
  // search for the last knot at or below x: the segment std::upper_bound
  // would pick, and never the last knot, so hi stays in range.
  const double* lo_knot = xs_.data();
  for (std::size_t len = xs_.size(); len > 1;) {
    const std::size_t half = len / 2;
    lo_knot = lo_knot[half] <= x ? lo_knot + half : lo_knot;
    len -= half;
  }
  const auto lo = static_cast<std::size_t>(lo_knot - xs_.data());
  const std::size_t hi = lo + 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

}  // namespace lpvs::common
