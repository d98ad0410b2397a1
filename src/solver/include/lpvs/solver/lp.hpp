// Linear-programming problem and result types: maximize c^T x subject to
// A x <= b and box bounds 0 <= x <= u.
//
// The reproduction's stand-in for the off-the-shelf solvers the paper calls
// (CPLEX / Gurobi / CVX, SV-C) is RevisedLpSolver (revised_lp.hpp), which
// solves these problems for branch-and-bound.  The Phase-1 problem has only
// a handful of rows (two capacity constraints plus the compacted
// feasibility pre-filter) while n can be in the thousands (Fig. 10 scales
// the VC to 5,000 devices), so the basis is tiny and kept explicitly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lpvs/common/status.hpp"

namespace lpvs::solver {

/// max c.x  s.t.  A x <= b,  0 <= x <= upper.
struct LpProblem {
  std::vector<double> objective;            ///< c, size n
  std::vector<std::vector<double>> rows;    ///< A, m rows of size n
  std::vector<double> rhs;                  ///< b, size m
  std::vector<double> upper;                ///< u, size n (>= 0, may be +inf)

  std::size_t num_vars() const { return objective.size(); }
  std::size_t num_rows() const { return rows.size(); }
};

enum class LpStatus {
  kOptimal,
  kUnbounded,
  kIterationLimit,
  kMalformed,
  kInfeasible,  ///< no point satisfies the rows within the bounds
};

std::string to_string(LpStatus status);

/// Canonical-status view of an LP outcome: kOptimal maps to OK,
/// kIterationLimit to kResourceExhausted (raise Options::max_iterations),
/// kUnbounded to kInternal (capacity rows cannot produce it), kMalformed
/// to kInvalidArgument, kInfeasible to kInfeasible.
common::Status to_status(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::kMalformed;
  double objective = 0.0;
  std::vector<double> x;
  int iterations = 0;

  bool optimal() const { return status == LpStatus::kOptimal; }
};

}  // namespace lpvs::solver
