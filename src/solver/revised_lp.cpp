#include "lpvs/solver/revised_lp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

namespace lpvs::solver {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint8_t kAtLower = 0;
constexpr std::uint8_t kAtUpper = 1;
constexpr std::uint8_t kBasic = 2;

/// `cond ? a : b` without a branch.  The hot loops choose per variable
/// between two bounds, or a value and zero, on data the branch predictor
/// cannot learn (which variables sit at their upper bound, which are
/// fixed); a bit mask returns exactly one input, NaNs, infinities and
/// signed zeros included.
double select(bool cond, double a, double b) {
  const std::uint64_t mask = -static_cast<std::uint64_t>(cond);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

/// Pricing direction by state (at lower, at upper, basic); a variable
/// fixed in place (upper - lower not > 0) cannot move and prices as 0.
constexpr double kDirection[3] = {1.0, -1.0, 0.0};

double direction(std::uint8_t state, double lower, double upper) {
  return select(upper - lower > 0.0, kDirection[state], 0.0);
}

// Pricing kernels over the column-major structural columns, followed by
// the slacks.  Each is instantiated for one and two rows (the Phase-1
// shapes after presolve) and for any row count (M = 0, the joint ABR
// knapsack).  Every sum runs in ascending row order — the order the scalar
// formulas always used — so all instantiations return identical bits.
struct Columns {
  const double* data;  ///< column-major, n * m
  std::size_t n;
  std::size_t m;
};

/// d_j = c_j - sum_k y_k a_kj; a slack's column is its unit vector.
template <std::size_t M>
double reduced_cost(const Columns& a, const double* costs, const double* y,
                    std::size_t j) {
  double d = costs[j];
  if (j < a.n) {
    const std::size_t m = M != 0 ? M : a.m;
    for (std::size_t k = 0; k < m; ++k) d -= y[k] * a.data[j * m + k];
  } else {
    d -= y[j - a.n];
  }
  return d;
}

/// alpha_j = 0 + sum_k rho_k a_kj: entry j of the tableau row rho * A.
template <std::size_t M>
double row_entry(const Columns& a, const double* rho, std::size_t j) {
  if (j >= a.n) return rho[j - a.n];
  const std::size_t m = M != 0 ? M : a.m;
  double alpha = 0.0;
  for (std::size_t k = 0; k < m; ++k) alpha += rho[k] * a.data[j * m + k];
  return alpha;
}

/// Dantzig pricing: the variable maximizing dir_j * d_j above `tol`
/// (lowest index on ties), or under Bland's rule the first one above it.
/// dir_j * d_j is |d_j| exactly when j is improving and <= tol otherwise.
template <std::size_t M>
std::ptrdiff_t price_primal(const Columns& a, const double* costs,
                            const double* y, const double* dir, double tol,
                            bool bland) {
  std::ptrdiff_t entering = -1;
  double best = tol;
  for (std::size_t j = 0; j < a.n + a.m; ++j) {
    const double score = reduced_cost<M>(a, costs, y, j) * dir[j];
    if (score > best) {
      entering = static_cast<std::ptrdiff_t>(j);
      if (bland) break;
      best = score;
    }
  }
  return entering;
}

/// Dual ratio test over the tableau row `rho`: among the candidates whose
/// pivot direction repairs the violation (flip * dir_j * alpha_j > tol,
/// flip = -1 when the leaving variable sits below its lower bound), the
/// smallest |d_j / alpha_j|; ties prefer larger |alpha| (dropped under
/// Bland's rule) then the lowest index.  Candidates are first listed
/// branch-free (index order, with their alpha in `alphas`), so the ratio
/// loop only visits them.
template <std::size_t M>
std::ptrdiff_t price_dual(const Columns& a, const double* costs,
                          const double* y, const double* rho,
                          const double* dir, double flip, double tol,
                          bool bland, std::uint32_t* list, double* alphas,
                          double& best_ratio) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < a.n + a.m; ++j) {
    const double alpha = row_entry<M>(a, rho, j);
    list[count] = static_cast<std::uint32_t>(j);
    alphas[count] = alpha;
    count += alpha * flip * dir[j] > tol;
  }
  std::ptrdiff_t entering = -1;
  double best_alpha = 0.0;
  best_ratio = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = list[k];
    const double alpha = alphas[k];
    const double ratio = std::fabs(reduced_cost<M>(a, costs, y, j) / alpha);
    const bool better = entering < 0 || ratio < best_ratio - tol ||
                        (!bland && ratio < best_ratio + tol &&
                         std::fabs(alpha) > best_alpha);
    if (better) {
      entering = static_cast<std::ptrdiff_t>(j);
      best_ratio = ratio;
      best_alpha = std::fabs(alpha);
    }
  }
  return entering;
}

/// Cost shifting: every nonbasic variable whose reduced cost under `costs`
/// is dual infeasible (d > tol at lower, d < -tol at upper: the sign
/// kDirection[state] * d > tol, which no basic variable passes) has it
/// subtracted from its entry of `shifted`.
template <std::size_t M>
void shift(const Columns& a, const double* costs, const double* y,
           const std::uint8_t* state, double tol, double* shifted) {
  for (std::size_t j = 0; j < a.n + a.m; ++j) {
    const double d = reduced_cost<M>(a, costs, y, j);
    if (d * kDirection[state[j]] > tol) shifted[j] -= d;
  }
}

/// residual -= A_j * value_j over the listed variables (index order, so
/// structurals before slacks), each row's subtractions in list order.  For
/// one or two rows the running row values stay in registers.
template <std::size_t M>
void subtract_columns(const Columns& a, const std::uint32_t* vars,
                      const double* values, std::size_t count,
                      double* residual) {
  std::size_t k = 0;
  if constexpr (M != 0) {
    double r[M];
    for (std::size_t i = 0; i < M; ++i) r[i] = residual[i];
    for (; k < count && vars[k] < a.n; ++k) {
      const double* col = a.data + vars[k] * M;
      for (std::size_t i = 0; i < M; ++i) r[i] -= col[i] * values[k];
    }
    for (std::size_t i = 0; i < M; ++i) residual[i] = r[i];
  }
  for (; k < count; ++k) {
    const std::size_t j = vars[k];
    if (j < a.n) {
      for (std::size_t i = 0; i < a.m; ++i) {
        residual[i] -= a.data[j * a.m + i] * values[k];
      }
    } else {
      residual[j - a.n] -= values[k];
    }
  }
}

/// Calls fn with the row count as a compile-time constant when a
/// specialised kernel exists for it, else with 0 (the generic loop).
template <typename Fn>
decltype(auto) with_rows(std::size_t m, Fn&& fn) {
  switch (m) {
    case 1:
      return fn(std::integral_constant<std::size_t, 1>{});
    case 2:
      return fn(std::integral_constant<std::size_t, 2>{});
    default:
      return fn(std::integral_constant<std::size_t, 0>{});
  }
}

}  // namespace

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
    case LpStatus::kMalformed:
      return "malformed";
    case LpStatus::kInfeasible:
      return "infeasible";
  }
  return "unknown";
}

common::Status to_status(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return common::Status::Ok();
    case LpStatus::kUnbounded:
      return common::Status::Internal("lp relaxation unbounded");
    case LpStatus::kIterationLimit:
      return common::Status::ResourceExhausted("simplex iteration limit");
    case LpStatus::kMalformed:
      return common::Status::InvalidArgument("malformed lp problem");
    case LpStatus::kInfeasible:
      return common::Status::Infeasible("no point satisfies the lp rows");
  }
  return common::Status::Internal("unknown lp status");
}

bool RevisedLpSolver::load(const LpProblem& problem) {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.num_rows();
  if (problem.upper.size() != n || problem.rhs.size() != m) return false;
  for (const auto& row : problem.rows) {
    if (row.size() != n) return false;
  }
  for (double u : problem.upper) {
    if (std::isnan(u) || !(u >= 0.0)) return false;
  }
  for (double b : problem.rhs) {
    if (!std::isfinite(b)) return false;
  }
  n_ = n;
  m_ = m;
  total_ = n + m;
  cols_.assign(n * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cols_[j * m + i] = problem.rows[i][j];
    }
  }
  costs_.assign(total_, 0.0);
  std::copy(problem.objective.begin(), problem.objective.end(),
            costs_.begin());
  rhs_ = problem.rhs;
  problem_upper_ = problem.upper;
  lower_.assign(total_, 0.0);
  upper_.assign(total_, kInf);
  for (std::size_t j = 0; j < n; ++j) upper_[j] = problem.upper[j];
  basis_.assign(m, 0);
  state_.assign(total_, kAtLower);
  dir_.assign(total_, 0.0);
  binv_.assign(m * m, 0.0);
  xb_.assign(m, 0.0);
  y_.assign(m, 0.0);
  w_.assign(m, 0.0);
  shifted_.assign(total_, 0.0);
  factor_.assign(m * m, 0.0);
  inverse_.assign(m * m, 0.0);
  residual_.assign(m, 0.0);
  listed_.assign(total_, 0);
  listed_value_.assign(total_, 0.0);
  x_.assign(n, 0.0);
  pivots_since_refactor_ = 0;
  return true;
}

void RevisedLpSolver::set_bounds(std::size_t var, double lower, double upper) {
  lower_[var] = lower;
  upper_[var] = upper;
}

void RevisedLpSolver::reset_bounds() {
  for (std::size_t j = 0; j < n_; ++j) {
    lower_[j] = 0.0;
    upper_[j] = problem_upper_[j];
  }
}

void RevisedLpSolver::set_fixings(const signed char* fixing) {
  double* lower = lower_.data();
  double* upper = upper_.data();
  const double* loaded = problem_upper_.data();
  for (std::size_t j = 0; j < n_; ++j) {
    const double pinned = select(fixing[j] == 1, 1.0, 0.0);
    lower[j] = pinned;
    upper[j] = select(fixing[j] == -1, loaded[j], pinned);
  }
}

double RevisedLpSolver::column_entry(std::size_t var, std::size_t row) const {
  if (var < n_) return cols_[var * m_ + row];
  return var - n_ == row ? 1.0 : 0.0;
}

double RevisedLpSolver::nonbasic_value(std::size_t var) const {
  return select(state_[var] == kAtUpper, upper_[var], lower_[var]);
}

void RevisedLpSolver::compute_column(std::size_t var,
                                     std::vector<double>& w) const {
  if (var < n_) {
    const double* col = cols_.data() + var * m_;
    for (std::size_t i = 0; i < m_; ++i) {
      double v = 0.0;
      const double* brow = &binv_[i * m_];
      for (std::size_t k = 0; k < m_; ++k) v += brow[k] * col[k];
      w[i] = v;
    }
  } else {
    const std::size_t r = var - n_;
    for (std::size_t i = 0; i < m_; ++i) w[i] = binv_[i * m_ + r];
  }
}

bool RevisedLpSolver::refactorize() {
  // Gauss-Jordan inversion of the basis matrix with partial pivoting,
  // matching the dense solver's invert() numerics.
  std::vector<double>& a = factor_;
  std::vector<double>& inv = inverse_;
  for (std::size_t c = 0; c < m_; ++c) {
    for (std::size_t i = 0; i < m_; ++i) {
      a[i * m_ + c] = column_entry(basis_[c], i);
    }
  }
  std::fill(inv.begin(), inv.end(), 0.0);
  for (std::size_t i = 0; i < m_; ++i) inv[i * m_ + i] = 1.0;
  for (std::size_t col = 0; col < m_; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m_; ++r) {
      if (std::fabs(a[r * m_ + col]) > std::fabs(a[pivot * m_ + col])) {
        pivot = r;
      }
    }
    if (std::fabs(a[pivot * m_ + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < m_; ++c) {
        std::swap(a[pivot * m_ + c], a[col * m_ + c]);
        std::swap(inv[pivot * m_ + c], inv[col * m_ + c]);
      }
    }
    const double scale = a[col * m_ + col];
    for (std::size_t c = 0; c < m_; ++c) {
      a[col * m_ + c] /= scale;
      inv[col * m_ + c] /= scale;
    }
    for (std::size_t r = 0; r < m_; ++r) {
      if (r == col) continue;
      const double factor = a[r * m_ + col];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < m_; ++c) {
        a[r * m_ + c] -= factor * a[col * m_ + c];
        inv[r * m_ + c] -= factor * inv[col * m_ + c];
      }
    }
  }
  binv_.swap(inverse_);
  pivots_since_refactor_ = 0;
  return true;
}

void RevisedLpSolver::compute_basic_values() {
  // x_B = Binv * (b - sum over nonbasic j of A_j * value_j).  A branch-free
  // first pass refreshes every pricing direction and lists, in index
  // order, the nonbasic variables off zero; only those touch the residual.
  std::size_t count = 0;
  for (std::size_t j = 0; j < total_; ++j) {
    const std::uint8_t s = state_[j];
    const double v = nonbasic_value(j);
    dir_[j] = direction(s, lower_[j], upper_[j]);
    listed_[count] = static_cast<std::uint32_t>(j);
    listed_value_[count] = v;
    count += (s != kBasic) & (v != 0.0);
  }
  std::copy(rhs_.begin(), rhs_.end(), residual_.begin());
  const Columns a{cols_.data(), n_, m_};
  with_rows(m_, [&](auto rows) {
    subtract_columns<decltype(rows)::value>(
        a, listed_.data(), listed_value_.data(), count, residual_.data());
  });
  for (std::size_t i = 0; i < m_; ++i) {
    double v = 0.0;
    const double* brow = &binv_[i * m_];
    for (std::size_t k = 0; k < m_; ++k) v += brow[k] * residual_[k];
    xb_[i] = v;
  }
}

void RevisedLpSolver::eta_update(const std::vector<double>& w,
                                 std::size_t row) {
  // B^-1 <- E * B^-1 where E is the eta matrix of the pivot column.
  const double inv_pivot = 1.0 / w[row];
  double* prow = &binv_[row * m_];
  for (std::size_t k = 0; k < m_; ++k) prow[k] *= inv_pivot;
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == row) continue;
    const double f = w[i];
    if (f == 0.0) continue;
    double* irow = &binv_[i * m_];
    for (std::size_t k = 0; k < m_; ++k) irow[k] -= f * prow[k];
  }
  ++pivots_since_refactor_;
}

bool RevisedLpSolver::primal_feasible() const {
  const double ftol = options_.tolerance * 100.0;
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t b = basis_[i];
    if (xb_[i] < lower_[b] - ftol) return false;
    if (xb_[i] > upper_[b] + ftol) return false;
  }
  return true;
}

void RevisedLpSolver::compute_y(const std::vector<double>& costs) {
  for (std::size_t k = 0; k < m_; ++k) y_[k] = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = costs[basis_[i]];
    if (cb == 0.0) continue;
    const double* brow = &binv_[i * m_];
    for (std::size_t k = 0; k < m_; ++k) y_[k] += cb * brow[k];
  }
}

void RevisedLpSolver::update_direction(std::size_t var) {
  dir_[var] = direction(state_[var], lower_[var], upper_[var]);
}

void RevisedLpSolver::shift_costs() {
  // Cost shifting: subtract each nonbasic variable's dual infeasibility
  // from its cost so the current basis is dual feasible by construction.
  // The dual phase then runs under the shifted vector; the infeasibility
  // certificate it may produce is objective-independent, and the final
  // primal phase restores the true costs.  When the basis is already dual
  // feasible (the hot B&B re-solve path) this is the identity.
  std::copy(costs_.begin(), costs_.end(), shifted_.begin());
  compute_y(costs_);
  const Columns a{cols_.data(), n_, m_};
  with_rows(m_, [&](auto rows) {
    shift<decltype(rows)::value>(a, costs_.data(), y_.data(), state_.data(),
                                 options_.tolerance, shifted_.data());
  });
}

LpStatus RevisedLpSolver::primal_phase(const std::vector<double>& costs,
                                       int& iters) {
  const double tol = options_.tolerance;
  const Columns a{cols_.data(), n_, m_};
  int degenerate_streak = 0;
  while (true) {
    if (iters >= options_.max_iterations) return LpStatus::kIterationLimit;
    compute_y(costs);

    // Pricing: Dantzig normally, Bland (lowest index) when degenerate.
    const bool bland = degenerate_streak > 64;
    const std::ptrdiff_t entering = with_rows(m_, [&](auto rows) {
      return price_primal<decltype(rows)::value>(a, costs.data(), y_.data(),
                                                 dir_.data(), tol, bland);
    });
    if (entering < 0) return LpStatus::kOptimal;
    ++iters;

    const auto e = static_cast<std::size_t>(entering);
    const double sigma = state_[e] == kAtLower ? 1.0 : -1.0;
    compute_column(e, w_);

    // Ratio test: basic i moves by -sigma * w_i per unit of t.
    const double span = upper_[e] - lower_[e];
    double t_max = span;  // bound-flip distance, may be +inf
    std::ptrdiff_t leaving = -1;
    bool leaving_to_upper = false;
    for (std::size_t i = 0; i < m_; ++i) {
      const double delta = -sigma * w_[i];
      const std::size_t bi = basis_[i];
      if (delta < -tol) {  // decreases toward its lower bound
        const double limit = std::max(xb_[i] - lower_[bi], 0.0) / -delta;
        if (limit < t_max - tol || (limit < t_max + tol && leaving < 0)) {
          t_max = std::min(t_max, limit);
          leaving = static_cast<std::ptrdiff_t>(i);
          leaving_to_upper = false;
        }
      } else if (delta > tol) {  // increases toward its upper bound
        const double hi = upper_[bi];
        if (!std::isfinite(hi)) continue;
        const double limit = std::max(hi - xb_[i], 0.0) / delta;
        if (limit < t_max - tol || (limit < t_max + tol && leaving < 0)) {
          t_max = std::min(t_max, limit);
          leaving = static_cast<std::ptrdiff_t>(i);
          leaving_to_upper = true;
        }
      }
    }
    if (!std::isfinite(t_max)) return LpStatus::kUnbounded;
    degenerate_streak = t_max < tol ? degenerate_streak + 1 : 0;

    if (leaving < 0 || (std::isfinite(span) && t_max >= span - tol)) {
      // Bound flip: the entering variable traverses its whole span.
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= sigma * w_[i] * span;
      state_[e] = state_[e] == kAtLower ? kAtUpper : kAtLower;
      update_direction(e);
      continue;
    }

    // Pivot: basis[leaving] exits to a bound, e becomes basic.
    const auto lrow = static_cast<std::size_t>(leaving);
    for (std::size_t i = 0; i < m_; ++i) xb_[i] -= sigma * w_[i] * t_max;
    const double enter_value = nonbasic_value(e) + sigma * t_max;
    const std::size_t bl = basis_[lrow];
    state_[bl] = leaving_to_upper ? kAtUpper : kAtLower;
    update_direction(bl);
    basis_[lrow] = static_cast<std::uint32_t>(e);
    state_[e] = kBasic;
    update_direction(e);
    xb_[lrow] = enter_value;
    eta_update(w_, lrow);
    if (pivots_since_refactor_ >= options_.refactor_interval) {
      if (!refactorize()) return LpStatus::kMalformed;
      compute_basic_values();
    }
  }
}

LpStatus RevisedLpSolver::dual_phase(const std::vector<double>& costs,
                                     int& iters) {
  const double tol = options_.tolerance;
  const double ftol = tol * 100.0;
  const Columns a{cols_.data(), n_, m_};
  int degenerate_streak = 0;
  while (true) {
    if (iters >= options_.max_iterations) return LpStatus::kIterationLimit;

    // Leaving: the basic variable with the largest bound violation (lowest
    // row index under the Bland fallback).
    const bool bland = degenerate_streak > 64;
    std::ptrdiff_t r = -1;
    bool below = false;
    double worst = ftol;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t b = basis_[i];
      if (xb_[i] < lower_[b] - ftol) {
        const double v = lower_[b] - xb_[i];
        if (v > worst) {
          worst = v;
          r = static_cast<std::ptrdiff_t>(i);
          below = true;
        }
      } else if (xb_[i] > upper_[b] + ftol) {
        const double v = xb_[i] - upper_[b];
        if (v > worst) {
          worst = v;
          r = static_cast<std::ptrdiff_t>(i);
          below = false;
        }
      }
      if (bland && r >= 0) break;
    }
    if (r < 0) return LpStatus::kOptimal;  // primal feasible: phase done
    ++iters;

    const auto row = static_cast<std::size_t>(r);
    compute_y(costs);
    const double* rho = &binv_[row * m_];

    // Entering: dual ratio test over the movable nonbasic candidates whose
    // pivot direction repairs the violation.  All candidate ratios share a
    // sign, so min |d/alpha| keeps every reduced cost on its feasible side.
    double best_ratio = 0.0;
    const std::ptrdiff_t entering = with_rows(m_, [&](auto rows) {
      return price_dual<decltype(rows)::value>(
          a, costs.data(), y_.data(), rho, dir_.data(), below ? -1.0 : 1.0,
          tol, bland, listed_.data(), listed_value_.data(), best_ratio);
    });
    if (entering < 0) return LpStatus::kInfeasible;  // Farkas certificate

    const auto e = static_cast<std::size_t>(entering);
    compute_column(e, w_);
    const double alpha_e = w_[row];
    if (std::fabs(alpha_e) < 1e-12) return LpStatus::kMalformed;

    // The leaving variable lands exactly on its violated bound.
    const std::size_t bl = basis_[row];
    const double target = below ? lower_[bl] : upper_[bl];
    const double delta_e = (xb_[row] - target) / alpha_e;
    const double enter_value = nonbasic_value(e) + delta_e;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      xb_[i] -= w_[i] * delta_e;
    }
    state_[bl] = below ? kAtLower : kAtUpper;
    update_direction(bl);
    basis_[row] = static_cast<std::uint32_t>(e);
    state_[e] = kBasic;
    update_direction(e);
    xb_[row] = enter_value;
    eta_update(w_, row);
    degenerate_streak = best_ratio < tol ? degenerate_streak + 1 : 0;
    if (pivots_since_refactor_ >= options_.refactor_interval) {
      if (!refactorize()) return LpStatus::kMalformed;
      compute_basic_values();
    }
  }
}

RevisedLpSolver::Result RevisedLpSolver::run() {
  int iters = 0;
  if (!refactorize()) return extract(LpStatus::kMalformed, iters);
  compute_basic_values();
  if (!primal_feasible()) {
    shift_costs();
    const LpStatus status = dual_phase(shifted_, iters);
    if (status != LpStatus::kOptimal) return extract(status, iters);
  }
  // Its own statement: extract() takes `iters` by value, and an argument
  // list may read it before primal_phase() has added its pivots.
  const LpStatus status = primal_phase(costs_, iters);
  return extract(status, iters);
}

RevisedLpSolver::Result RevisedLpSolver::solve_in_place() {
  for (std::size_t j = 0; j < total_; ++j) state_[j] = kAtLower;
  for (std::size_t i = 0; i < m_; ++i) {
    basis_[i] = static_cast<std::uint32_t>(n_ + i);
    state_[n_ + i] = kBasic;
  }
  return run();
}

RevisedLpSolver::Result RevisedLpSolver::resolve_in_place(
    const SimplexBasis& from) {
  if (from.basic.size() != m_ || from.state.size() != total_) {
    return solve_in_place();
  }
  std::size_t basic_count = 0;
  for (std::size_t j = 0; j < total_; ++j) {
    if (from.state[j] == kBasic) ++basic_count;
  }
  if (basic_count != m_) return solve_in_place();
  for (std::size_t i = 0; i < m_; ++i) {
    const std::uint32_t b = from.basic[i];
    if (b >= total_ || from.state[b] != kBasic) return solve_in_place();
  }
  basis_ = from.basic;
  state_ = from.state;
  // A nonbasic variable cannot sit at an infinite upper bound.
  for (std::size_t j = 0; j < total_; ++j) {
    if (state_[j] == kAtUpper && !std::isfinite(upper_[j])) {
      state_[j] = kAtLower;
    }
  }
  const Result result = run();
  if (result.status == LpStatus::kMalformed) {
    // Singular under the new coefficients (or numeric breakdown): the
    // snapshot is useless, solve cold.  Deterministic — singularity is a
    // pure function of the inputs.
    return solve_in_place();
  }
  return result;
}

RevisedLpSolver::Result RevisedLpSolver::resolve_trusted(
    const std::uint32_t* basic, const std::uint8_t* state) {
  std::copy(basic, basic + m_, basis_.begin());
  std::copy(state, state + total_, state_.begin());
  const Result result = run();
  if (result.status == LpStatus::kMalformed) return solve_in_place();
  return result;
}

LpSolution RevisedLpSolver::solve() { return to_solution(solve_in_place()); }

LpSolution RevisedLpSolver::resolve(const SimplexBasis& from) {
  return to_solution(resolve_in_place(from));
}

double RevisedLpSolver::reduced_cost(std::size_t var) const {
  // The primal phase always runs last and prices from a fresh compute_y
  // under the true costs, so y_ holds the optimal basis's duals.
  const Columns a{cols_.data(), n_, m_};
  return with_rows(m_, [&](auto rows) {
    return solver::reduced_cost<decltype(rows)::value>(a, costs_.data(),
                                                       y_.data(), var);
  });
}

SimplexBasis RevisedLpSolver::basis() const {
  SimplexBasis snapshot;
  snapshot.basic = basis_;
  snapshot.state = state_;
  return snapshot;
}

RevisedLpSolver::Result RevisedLpSolver::extract(LpStatus status, int iters) {
  Result result;
  result.status = status;
  result.iterations = iters;
  if (status != LpStatus::kOptimal) return result;
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t b = basis_[i];
    if (b < n_) x_[b] = std::clamp(xb_[i], lower_[b], upper_[b]);
  }
  // Nonbasic values and the objective in one index-ordered pass.
  double objective = 0.0;
  for (std::size_t j = 0; j < n_; ++j) {
    x_[j] = select(state_[j] == kBasic, x_[j], nonbasic_value(j));
    objective += costs_[j] * x_[j];
  }
  result.objective = objective;
  return result;
}

LpSolution RevisedLpSolver::to_solution(const Result& result) const {
  LpSolution solution;
  solution.status = result.status;
  solution.iterations = result.iterations;
  if (!result.optimal()) return solution;
  solution.x = x_;
  solution.objective = result.objective;
  return solution;
}

}  // namespace lpvs::solver
