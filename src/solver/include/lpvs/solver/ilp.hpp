// 0/1 integer programming on top of the revised simplex (revised_lp.hpp).
//
// Phase-1 of the LPVS heuristic is a pure binary program: maximize the
// total power saving subject to the two edge-capacity rows (6)(7), with the
// compacted energy-feasibility constraint (11) acting as a per-device
// eligibility filter.  The paper feeds this to CPLEX/Gurobi; we provide one
// exact branch-and-bound over our own revised simplex, plus the greedy
// heuristic that seeds it.  The reference solvers the tests check it
// against (dense LP and B&B, exhaustive, knapsack DP) live in the
// test-support library, lpvs/solver/oracle.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lpvs/common/status.hpp"
#include "lpvs/solver/revised_lp.hpp"

namespace lpvs::solver {

/// max c.x  s.t.  A x <= b,  x_j in {0,1},  x_j = 0 where !eligible[j].
/// All row coefficients must be non-negative (true for capacity rows).
struct BinaryProgram {
  std::vector<double> objective;
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  std::vector<std::uint8_t> eligible;  ///< empty means all eligible

  std::size_t num_vars() const { return objective.size(); }
  bool is_eligible(std::size_t j) const {
    return eligible.empty() || eligible[j] != 0;
  }
  /// Feasibility of a concrete selection against all rows.
  bool feasible(const std::vector<int>& x, double tol = 1e-9) const;
  /// Objective value of a concrete selection.
  double value(const std::vector<int>& x) const;
};

enum class IlpStatus {
  kOptimal,
  kFeasible,      ///< node limit hit; best incumbent returned
  kInfeasible,    ///< no 0/1 point satisfies the rows.  With non-negative
                  ///< row coefficients this happens exactly when some
                  ///< rhs[i] < 0, which makes even all-zeros infeasible.
  kMalformed,
};

std::string to_string(IlpStatus status);

/// Canonical-status view of an ILP outcome.  kOptimal *and* kFeasible map
/// to OK — a node-limit incumbent is a usable schedule, and the precise
/// status stays on IlpSolution::status.  kInfeasible maps to kInfeasible,
/// kMalformed to kInvalidArgument.
common::Status to_status(IlpStatus status);

struct IlpSolution {
  IlpStatus status = IlpStatus::kMalformed;
  std::vector<int> x;
  double objective = 0.0;
  long nodes_explored = 0;
  /// LP pivots (LpSolution::iterations) summed over the explored nodes.
  /// Diagnostic only: not part of checkpoints, wire frames or digests.
  long lp_pivots = 0;
  /// Variables the B&B root fixed by reduced cost (with the
  /// free columns those fixings crowd out of a row); 0 when no B&B ran.
  /// Diagnostic only, like lp_pivots.
  long root_fixed = 0;

  bool optimal() const { return status == IlpStatus::kOptimal; }
};

/// Exact branch-and-bound with LP bounding, most-fractional branching, and
/// a greedy warm start: presolve + root reduced-cost fixing + best-first
/// node heap + per-node dual-simplex re-solve from the parent basis
/// (RevisedLpSolver at its default options).  No LP basis carries over
/// between solves; the one warm start is the incumbent.
///
/// Deterministic: node counts and objectives are pure functions of
/// (problem, options, incumbent) — no wall clocks, no thread-count
/// dependence — which is what keeps warm-started cluster streams and the
/// degradation ladder's node budgets reproducible.  The returned objective
/// additionally never depends on the incumbent (it only steers pruning);
/// the differential tests enforce this.
class BranchAndBoundSolver {
 public:
  struct Options {
    long max_nodes = 500'000;
    double tolerance = 1e-7;
    /// Prune nodes whose bound is within this relative gap of the
    /// incumbent.  0 gives a fully exact solve; scheduler_ilp_defaults()
    /// uses 1e-4 to avoid chasing ties through an exponential frontier of
    /// equivalent optima.
    double relative_gap = 0.0;
  };

  BranchAndBoundSolver() : BranchAndBoundSolver(Options{}) {}
  explicit BranchAndBoundSolver(Options options) : options_(options) {}

  /// Cold solve: the incumbent is seeded by GreedySolver.
  IlpSolution solve(const BinaryProgram& problem) const;

  /// Warm-started solve: `incumbent` (typically the previous slot's
  /// assignment repaired by solver::repair_assignment) replaces the greedy
  /// warm start.  It must be sized num_vars() and feasible; otherwise the
  /// solver silently falls back to the greedy seed.  The incumbent only
  /// tightens pruning — the returned objective matches a cold solve under
  /// the same options (the differential tests enforce this).
  IlpSolution solve(const BinaryProgram& problem,
                    const std::vector<int>& incumbent) const;

 private:
  /// Both solves: `incumbent` is nullptr for the greedy seed.
  IlpSolution search(const BinaryProgram& problem,
                     const std::vector<int>* incumbent) const;

  Options options_;
};

/// Density greedy: sorts by objective divided by the normalized sum of row
/// costs, admits greedily.  The "cannot be optimal" baseline of SIII-C and
/// the cold B&B warm start.  Reports kInfeasible when even its all-zeros
/// fallback violates a row (some rhs[i] < 0).
class GreedySolver {
 public:
  IlpSolution solve(const BinaryProgram& problem) const;
};

}  // namespace lpvs::solver
