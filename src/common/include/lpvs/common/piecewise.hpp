// Piecewise-linear function on a set of (x, y) knots.  This is the carrier
// type for the empirical LBA curve phi(.) of Fig. 2: the survey module
// extracts 100 knots (battery level 1..100 -> anxiety degree) and the LPVS
// scheduler evaluates / integrates the curve when scoring schedules.
//
// The scheduler evaluates phi once per chunk per trajectory, so the knot
// search is a table: [x_min, x_max] is split into equal buckets, and a
// lookup computes x's bucket, starts at the knot the table holds for it
// and scans up to the last knot at or below x.  The table is built with
// the lookup's own bucket formula, which never decreases as x grows, so
// every knot it names lies below any x of its bucket: the scan only ever
// moves up, over the knots inside x's bucket.  The segment and the
// interpolation formula are the ones std::upper_bound would give, so the
// value is too, bit for bit.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
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
  /// Buckets per knot-to-knot segment: enough that a bucket rarely holds
  /// more than one knot of an uneven curve such as the reference phi.
  static constexpr std::size_t kBucketsPerSegment = 4;

  /// The bucket of x_min < x < x_max.  Capped as a double, so rounding
  /// past the end (or an overflowed scale on a tiny x range) lands in the
  /// last bucket.
  std::size_t bucket_of(double x) const {
    const double position =
        std::min((x - xs_.front()) * buckets_per_x_, last_bucket_);
    return static_cast<std::size_t>(static_cast<std::int64_t>(position));
  }

  std::vector<double> xs_;
  std::vector<double> ys_;
  /// bucket_knot_[b]: the last knot whose bucket is below b (the first
  /// knot if none is), never the last knot.  Empty for fewer than two
  /// knots.
  std::vector<std::uint32_t> bucket_knot_;
  double buckets_per_x_ = 0.0;  ///< bucket count / (x_max - x_min)
  double last_bucket_ = 0.0;    ///< bucket count - 1
};

inline double PiecewiseLinear::operator()(double x) const {
  assert(!xs_.empty());
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  if (std::isnan(x)) return x;
  // Here x_min < x < x_max, so there are at least two knots and a bucket
  // table.  The bucket's knot is at or below x; x < x_max stops the scan
  // before the last knot, so hi stays in range.
  std::size_t lo = bucket_knot_[bucket_of(x)];
  while (xs_[lo + 1] <= x) ++lo;
  const std::size_t hi = lo + 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

}  // namespace lpvs::common
