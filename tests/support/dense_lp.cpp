#include "lpvs/solver/oracle.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace lpvs::solver::oracle {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarState : unsigned char { kAtLower, kAtUpper, kBasic };

/// Inverts an m x m matrix in place via Gauss-Jordan with partial pivoting.
/// Returns false on (numerical) singularity.
bool invert(std::vector<std::vector<double>>& a) {
  const std::size_t m = a.size();
  std::vector<std::vector<double>> inv(m, std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < m; ++i) inv[i][i] = 1.0;
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[pivot], a[col]);
    std::swap(inv[pivot], inv[col]);
    const double scale = a[col][col];
    for (std::size_t c = 0; c < m; ++c) {
      a[col][c] /= scale;
      inv[col][c] /= scale;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (r == col) continue;
      const double factor = a[r][col];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < m; ++c) {
        a[r][c] -= factor * a[col][c];
        inv[r][c] -= factor * inv[col][c];
      }
    }
  }
  a = std::move(inv);
  return true;
}

}  // namespace

bool well_formed(const LpProblem& problem) {
  if (problem.upper.size() != problem.objective.size()) return false;
  if (problem.rhs.size() != problem.rows.size()) return false;
  for (const auto& row : problem.rows) {
    if (row.size() != problem.objective.size()) return false;
  }
  for (double b : problem.rhs) {
    if (!(b >= 0.0)) return false;  // slack basis must be feasible
  }
  for (double u : problem.upper) {
    if (!(u >= 0.0) || std::isnan(u)) return false;  // +inf allowed
  }
  return true;
}

LpSolution LpSolver::solve(const LpProblem& problem) const {
  LpSolution solution;
  if (!well_formed(problem)) {
    solution.status = LpStatus::kMalformed;
    return solution;
  }
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.num_rows();
  const std::size_t total = n + m;  // structural + slack variables
  const double tol = options_.tolerance;

  // Column access: structural columns come from `rows`; slack j has a
  // single 1.0 in row j.
  auto column_entry = [&](std::size_t var, std::size_t row) -> double {
    if (var < n) return problem.rows[row][var];
    return var - n == row ? 1.0 : 0.0;
  };
  auto cost = [&](std::size_t var) -> double {
    return var < n ? problem.objective[var] : 0.0;
  };
  auto upper = [&](std::size_t var) -> double {
    return var < n ? problem.upper[var] : kInfinity;
  };

  std::vector<VarState> state(total, VarState::kAtLower);
  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) {
    basis[i] = n + i;
    state[n + i] = VarState::kBasic;
  }

  std::vector<double> basic_value(m, 0.0);
  std::vector<std::vector<double>> binv;

  auto refresh_basis = [&]() -> bool {
    binv.assign(m, std::vector<double>(m, 0.0));
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        binv[i][j] = column_entry(basis[j], i);
      }
    }
    if (!invert(binv)) return false;
    // x_B = Binv * (b - A_N x_N); only at-upper nonbasics contribute.
    std::vector<double> residual = problem.rhs;
    for (std::size_t j = 0; j < total; ++j) {
      if (state[j] != VarState::kAtUpper) continue;
      const double value = upper(j);
      for (std::size_t i = 0; i < m; ++i) {
        residual[i] -= column_entry(j, i) * value;
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      double v = 0.0;
      for (std::size_t k = 0; k < m; ++k) v += binv[i][k] * residual[k];
      basic_value[i] = v;
    }
    return true;
  };

  if (!refresh_basis()) {
    solution.status = LpStatus::kMalformed;
    return solution;
  }

  int degenerate_streak = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // Simplex multipliers y = c_B^T Binv.
    std::vector<double> y(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double cb = cost(basis[i]);
      if (cb == 0.0) continue;
      for (std::size_t k = 0; k < m; ++k) y[k] += cb * binv[i][k];
    }

    // Pricing: Dantzig normally, Bland (lowest index) when degenerate.
    const bool bland = degenerate_streak > 64;
    std::ptrdiff_t entering = -1;
    double best_score = tol;
    for (std::size_t j = 0; j < total; ++j) {
      if (state[j] == VarState::kBasic) continue;
      double d = cost(j);
      for (std::size_t i = 0; i < m; ++i) {
        const double a = column_entry(j, i);
        if (a != 0.0) d -= y[i] * a;
      }
      const bool improving = state[j] == VarState::kAtLower ? d > tol
                                                            : d < -tol;
      if (!improving) continue;
      if (bland) {
        entering = static_cast<std::ptrdiff_t>(j);
        break;
      }
      if (std::fabs(d) > best_score) {
        best_score = std::fabs(d);
        entering = static_cast<std::ptrdiff_t>(j);
      }
    }

    if (entering < 0) {  // optimal
      solution.status = LpStatus::kOptimal;
      solution.iterations = iter;
      solution.x.assign(n, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        if (state[j] == VarState::kAtUpper) solution.x[j] = upper(j);
      }
      for (std::size_t i = 0; i < m; ++i) {
        if (basis[i] < n) {
          solution.x[basis[i]] = std::clamp(basic_value[i], 0.0,
                                            upper(basis[i]));
        }
      }
      solution.objective = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        solution.objective += problem.objective[j] * solution.x[j];
      }
      return solution;
    }

    const auto e = static_cast<std::size_t>(entering);
    const double sigma = state[e] == VarState::kAtLower ? 1.0 : -1.0;

    // w = Binv * A_e; basic i moves by -sigma * w_i per unit of t.
    std::vector<double> w(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      double v = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        v += binv[i][k] * column_entry(e, k);
      }
      w[i] = v;
    }

    double t_max = upper(e);  // bound-flip distance (span = upper - 0)
    std::ptrdiff_t leaving = -1;
    bool leaving_at_upper = false;
    for (std::size_t i = 0; i < m; ++i) {
      const double delta = -sigma * w[i];
      if (delta < -tol) {  // basic value decreases toward 0
        const double limit = std::max(basic_value[i], 0.0) / -delta;
        if (limit < t_max - tol ||
            (limit < t_max + tol && leaving < 0)) {
          t_max = std::min(t_max, limit);
          leaving = static_cast<std::ptrdiff_t>(i);
          leaving_at_upper = false;
        }
      } else if (delta > tol) {  // basic value increases toward its upper
        const double ub = upper(basis[i]);
        if (!std::isfinite(ub)) continue;
        const double limit = std::max(ub - basic_value[i], 0.0) / delta;
        if (limit < t_max - tol ||
            (limit < t_max + tol && leaving < 0)) {
          t_max = std::min(t_max, limit);
          leaving = static_cast<std::ptrdiff_t>(i);
          leaving_at_upper = true;
        }
      }
    }

    if (!std::isfinite(t_max)) {
      solution.status = LpStatus::kUnbounded;
      solution.iterations = iter;
      return solution;
    }

    degenerate_streak = t_max < tol ? degenerate_streak + 1 : 0;

    if (leaving < 0 || t_max >= upper(e) - tol) {
      // Bound flip: the entering variable traverses its whole span.
      state[e] = state[e] == VarState::kAtLower ? VarState::kAtUpper
                                                : VarState::kAtLower;
      if (!refresh_basis()) {
        solution.status = LpStatus::kMalformed;
        return solution;
      }
      continue;
    }

    // Pivot: basis[leaving] exits to a bound, e becomes basic.
    const auto leave_index = static_cast<std::size_t>(leaving);
    state[basis[leave_index]] =
        leaving_at_upper ? VarState::kAtUpper : VarState::kAtLower;
    basis[leave_index] = e;
    state[e] = VarState::kBasic;
    if (!refresh_basis()) {
      solution.status = LpStatus::kMalformed;
      return solution;
    }
  }

  solution.status = LpStatus::kIterationLimit;
  solution.iterations = options_.max_iterations;
  return solution;
}

}  // namespace lpvs::solver::oracle
