// Reference solvers for the tests and benches (library lpvs_solver_oracle).
//
// The served Phase-1 solver is solver::BranchAndBoundSolver over the
// revised/dual-simplex engine.  The solvers here are independent
// implementations it is checked against; no library under src links them:
//
//   LpSolver             dense bounded-variable primal simplex that
//                        rebuilds and re-inverts its basis every pivot
//   DenseBranchAndBound  depth-first, branch-up-first B&B over LpSolver,
//                        one relaxation built from scratch per node
//   ExhaustiveSolver     brute force over all 2^n selections
//   KnapsackDpSolver     weight-discretized DP for one-row programs
#pragma once

#include <cstddef>
#include <vector>

#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"

namespace lpvs::solver::oracle {

/// Structural sanity for LpSolver: matching sizes, every row with rhs >= 0
/// (so the slack basis is feasible) and uppers >= 0 (+infinity allowed).
/// RevisedLpSolver accepts negative rhs; this solver does not.
bool well_formed(const LpProblem& problem);

/// Dense LP: max c.x s.t. A x <= b, 0 <= x <= upper.  Reports kMalformed
/// for a problem that is not well_formed(), never kInfeasible.
class LpSolver {
 public:
  struct Options {
    int max_iterations = 200000;
    double tolerance = 1e-9;
  };

  LpSolver() : LpSolver(Options{}) {}
  explicit LpSolver(Options options) : options_(options) {}

  LpSolution solve(const LpProblem& problem) const;

 private:
  Options options_;
};

/// Exact branch-and-bound with the served solver's options (max_nodes,
/// tolerance, relative_gap), LP bounding by LpSolver, most-fractional
/// branching and LP-guided rounding at every node.  Deterministic: node
/// and pivot counts are pure functions of (problem, options, incumbent).
class DenseBranchAndBound {
 public:
  DenseBranchAndBound()
      : DenseBranchAndBound(BranchAndBoundSolver::Options{}) {}
  explicit DenseBranchAndBound(BranchAndBoundSolver::Options options)
      : options_(options) {}

  /// Cold solve: the incumbent is seeded by GreedySolver.
  IlpSolution solve(const BinaryProgram& problem) const;
  /// Warm-started solve: a feasible, num_vars()-sized `incumbent` replaces
  /// the greedy seed (otherwise it is ignored).  It only tightens pruning.
  IlpSolution solve(const BinaryProgram& problem,
                    const std::vector<int>& incumbent) const;

 private:
  IlpSolution search(const BinaryProgram& problem,
                     const std::vector<int>* incumbent) const;

  BranchAndBoundSolver::Options options_;
};

/// Brute force over all 2^n selections; ground truth for n <= ~22.
/// Reports kInfeasible when no candidate passes (some rhs[i] < 0).
class ExhaustiveSolver {
 public:
  explicit ExhaustiveSolver(std::size_t max_vars = 22) : max_vars_(max_vars) {}

  IlpSolution solve(const BinaryProgram& problem) const;

 private:
  std::size_t max_vars_;
};

/// DP over discretized weights for single-row programs: weights are scaled
/// to integers with `resolution` buckets across the capacity and rounded
/// *up*, so the result is optimal for the discretized instance and
/// feasible for the original.  It is a lower bound on the true optimum,
/// not the optimum itself.
class KnapsackDpSolver {
 public:
  struct Options {
    /// Number of integer weight buckets the capacity is divided into.
    /// Accuracy and memory are both linear in this.
    int resolution = 100000;
  };

  KnapsackDpSolver() : KnapsackDpSolver(Options{}) {}
  explicit KnapsackDpSolver(Options options) : options_(options) {}

  /// Requires exactly one row.  Returns kMalformed otherwise.
  IlpSolution solve(const BinaryProgram& problem) const;

  /// How much value the rounding can cost at most, relative to optimum:
  /// items' weights each grow by at most one bucket, so at most
  /// n / resolution of the capacity is wasted.
  double worst_case_capacity_loss(std::size_t items) const {
    return static_cast<double>(items) /
           static_cast<double>(options_.resolution);
  }

 private:
  Options options_;
};

}  // namespace lpvs::solver::oracle
