#include "lpvs/solver/presolve.hpp"

#include <algorithm>
#include <cstddef>

namespace lpvs::solver {

PresolveResult presolve_binary_program(const BinaryProgram& problem,
                                       double tol) {
  PresolveResult result;
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.rows.size();
  if (problem.rhs.size() != m ||
      (!problem.eligible.empty() && problem.eligible.size() != n)) {
    result.malformed = true;
    return result;
  }
  for (const auto& row : problem.rows) {
    if (row.size() != n) {
      result.malformed = true;
      return result;
    }
  }
  for (double b : problem.rhs) {
    if (b < -tol) {
      result.infeasible = true;
      return result;
    }
  }

  result.fixed.assign(n, -1);
  std::vector<signed char>& fixed = result.fixed;
  std::vector<std::uint8_t> row_active(m, 1);

  // Constraint (11)'s compacted eligibility mask, plus: a non-positive
  // objective entry can never help a maximization over non-negative rows.
  for (std::size_t j = 0; j < n; ++j) {
    if (!problem.is_eligible(j) || problem.objective[j] <= 0.0) fixed[j] = 0;
  }

  auto zero_on_active_rows = [&](std::size_t j) {
    for (std::size_t i = 0; i < m; ++i) {
      if (row_active[i] && problem.rows[i][j] != 0.0) return false;
    }
    return true;
  };

  // Each pass only ever fixes variables or deactivates rows, so a fixed
  // point arrives within n + m passes; in practice 2-3.  The cap is a
  // safety net, not a truncation anyone should hit.
  bool changed = true;
  for (int pass = 0; changed && pass < 64; ++pass) {
    changed = false;

    // Coefficient domination: a single coefficient larger than its row's
    // rhs means the variable alone overflows the row.
    for (std::size_t i = 0; i < m; ++i) {
      if (!row_active[i]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (fixed[j] == -1 && problem.rows[i][j] > problem.rhs[i] + tol) {
          fixed[j] = 0;
          changed = true;
        }
      }
    }

    // Variable fixing: a profitable variable consuming nothing on any
    // active row is always worth taking.  (Deactivated rows stay
    // satisfied: their elimination proofs summed over the then-free
    // variables, which included this one.)
    for (std::size_t j = 0; j < n; ++j) {
      if (fixed[j] == -1 && problem.objective[j] > 0.0 &&
          zero_on_active_rows(j)) {
        fixed[j] = 1;
        result.fixed_objective += problem.objective[j];
        changed = true;
      }
    }

    // Trivial-row elimination: a row slack enough to absorb every free
    // variable at once constrains nothing.  Exact compare — conservative.
    for (std::size_t i = 0; i < m; ++i) {
      if (!row_active[i]) continue;
      double free_sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (fixed[j] == -1) free_sum += problem.rows[i][j];
      }
      if (free_sum <= problem.rhs[i]) {
        row_active[i] = 0;
        changed = true;
      }
    }

    // Row domination: if A_i / rhs_i >= A_k / rhs_k componentwise over the
    // free variables, satisfying row i implies satisfying row k.  Compared
    // cross-multiplied to avoid division; on mutual domination the lower
    // index survives.
    for (std::size_t i = 0; i < m; ++i) {
      if (!row_active[i] || !(problem.rhs[i] > 0.0)) continue;
      for (std::size_t k = 0; k < m; ++k) {
        if (k == i || !row_active[k] || !(problem.rhs[k] > 0.0)) continue;
        bool i_implies_k = true;
        bool k_implies_i = true;
        for (std::size_t j = 0; j < n; ++j) {
          if (fixed[j] != -1) continue;
          const double scaled_k = problem.rows[k][j] * problem.rhs[i];
          const double scaled_i = problem.rows[i][j] * problem.rhs[k];
          if (scaled_k > scaled_i) i_implies_k = false;
          if (scaled_i > scaled_k) k_implies_i = false;
          if (!i_implies_k && !k_implies_i) break;
        }
        if (i_implies_k && (!k_implies_i || i < k)) {
          row_active[k] = 0;
          changed = true;
        }
      }
    }
  }

  for (std::size_t j = 0; j < n; ++j) {
    if (fixed[j] == -1) {
      result.var_map.push_back(static_cast<std::uint32_t>(j));
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (row_active[i]) {
      result.row_map.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Assemble the reduced program.  Fixed-to-one variables have zero
  // coefficients on every active row, so the active rhs values carry over
  // unchanged and the reduction is a pure projection.
  BinaryProgram& red = result.reduced;
  const std::size_t rn = result.var_map.size();
  const std::size_t rm = result.row_map.size();
  red.objective.resize(rn);
  for (std::size_t r = 0; r < rn; ++r) {
    red.objective[r] = problem.objective[result.var_map[r]];
  }
  red.rows.assign(rm, std::vector<double>(rn, 0.0));
  red.rhs.resize(rm);
  for (std::size_t i = 0; i < rm; ++i) {
    const std::vector<double>& row = problem.rows[result.row_map[i]];
    for (std::size_t r = 0; r < rn; ++r) {
      red.rows[i][r] = row[result.var_map[r]];
    }
    red.rhs[i] = problem.rhs[result.row_map[i]];
  }
  return result;
}

PresolveResult fix_variables(BinaryProgram program,
                             std::vector<signed char> fixed, double tol) {
  PresolveResult result;
  const std::size_t n = program.num_vars();
  const std::size_t m = program.rows.size();

  // Residual rhs once the fixed-to-one columns are taken.
  std::vector<double> residual(m);
  bool fits = true;
  for (std::size_t i = 0; i < m; ++i) {
    double taken = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (fixed[j] == 1) taken += program.rows[i][j];
    }
    fits &= !(taken > 0.0 && taken > program.rhs[i]);
    residual[i] = program.rhs[i] - taken;
  }
  if (!fits) {
    for (signed char& f : fixed) f = f == 1 ? -1 : f;
    residual = program.rhs;
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (fixed[j] == 1) result.fixed_objective += program.objective[j];
  }
  // Coefficient domination against what the fixings leave of each row.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (fixed[j] == -1 && program.rows[i][j] > residual[i] + tol) {
        fixed[j] = 0;
      }
    }
  }

  // Compact the free columns to the front, in order.
  for (std::size_t j = 0; j < n; ++j) {
    if (fixed[j] != -1) continue;
    const std::size_t r = result.var_map.size();
    result.var_map.push_back(static_cast<std::uint32_t>(j));
    program.objective[r] = program.objective[j];
    for (auto& row : program.rows) row[r] = row[j];
  }
  const std::size_t rn = result.var_map.size();
  program.objective.resize(rn);
  for (auto& row : program.rows) row.resize(rn);
  program.rhs = std::move(residual);
  for (std::size_t i = 0; i < m; ++i) {
    result.row_map.push_back(static_cast<std::uint32_t>(i));
  }
  result.fixed = std::move(fixed);
  result.reduced = std::move(program);
  return result;
}

std::vector<int> expand_solution(const PresolveResult& presolve,
                                 const std::vector<int>& reduced_x) {
  std::vector<int> x(presolve.fixed.size(), 0);
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (presolve.fixed[j] == 1) x[j] = 1;
  }
  const std::size_t rn =
      std::min(presolve.var_map.size(), reduced_x.size());
  for (std::size_t r = 0; r < rn; ++r) {
    x[presolve.var_map[r]] = reduced_x[r];
  }
  return x;
}

}  // namespace lpvs::solver
