#include "lpvs/common/piecewise.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace lpvs::common {

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs,
                                 std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  assert(xs_.size() == ys_.size());
  assert(!xs_.empty());
  assert(std::is_sorted(xs_.begin(), xs_.end(),
                        [](double a, double b) { return a <= b; }) ||
         std::adjacent_find(xs_.begin(), xs_.end(),
                            [](double a, double b) { return a >= b; }) ==
             xs_.end());
}

PiecewiseLinear PiecewiseLinear::from_uniform_samples(std::vector<double> ys,
                                                      double x0, double dx) {
  std::vector<double> xs(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = x0 + dx * static_cast<double>(i);
  }
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

bool PiecewiseLinear::non_increasing(double tol) const {
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    if (ys_[i] > ys_[i - 1] + tol) return false;
  }
  return true;
}

double PiecewiseLinear::integrate(double a, double b) const {
  if (empty() || a >= b) return 0.0;
  a = std::max(a, x_min());
  b = std::min(b, x_max());
  if (a >= b) return 0.0;
  double area = 0.0;
  double prev_x = a;
  double prev_y = (*this)(a);
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    if (xs_[i] <= a) continue;
    if (xs_[i] >= b) break;
    area += 0.5 * (prev_y + ys_[i]) * (xs_[i] - prev_x);
    prev_x = xs_[i];
    prev_y = ys_[i];
  }
  area += 0.5 * (prev_y + (*this)(b)) * (b - prev_x);
  return area;
}

double PiecewiseLinear::slope_at(double x) const {
  if (xs_.size() < 2) return 0.0;
  if (x <= xs_.front()) x = xs_.front();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  auto hi = static_cast<std::size_t>(it - xs_.begin());
  hi = std::clamp<std::size_t>(hi, 1, xs_.size() - 1);
  const std::size_t lo = hi - 1;
  return (ys_[hi] - ys_[lo]) / (xs_[hi] - xs_[lo]);
}

}  // namespace lpvs::common
