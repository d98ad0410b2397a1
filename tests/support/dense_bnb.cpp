#include "lpvs/solver/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace lpvs::solver::oracle {
namespace {

/// Per-node variable fixing: -1 free, 0 or 1 fixed.
using Fixing = std::vector<signed char>;

struct Node {
  Fixing fixing;
};

/// Builds the LP relaxation of `problem` under `fixing`.  Fixed-to-1
/// variables are substituted out (their cost moves into `base_objective`,
/// their row coefficients into the rhs).  Returns false when the fixings
/// alone already violate a row (all coefficients are non-negative, so a
/// negative adjusted rhs is a proof of infeasibility).
bool build_relaxation(const BinaryProgram& problem, const Fixing& fixing,
                      LpProblem& lp, double& base_objective, double tol) {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.rows.size();
  lp.objective = problem.objective;
  lp.rows = problem.rows;
  lp.rhs = problem.rhs;
  lp.upper.assign(n, 1.0);
  base_objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const bool forced_zero = !problem.is_eligible(j) || fixing[j] == 0;
    if (forced_zero) {
      lp.upper[j] = 0.0;
      lp.objective[j] = 0.0;
      continue;
    }
    if (fixing[j] == 1) {
      base_objective += problem.objective[j];
      for (std::size_t i = 0; i < m; ++i) {
        lp.rhs[i] -= problem.rows[i][j];
      }
      lp.upper[j] = 0.0;
      lp.objective[j] = 0.0;
    }
  }
  for (double& b : lp.rhs) {
    if (b < -tol) return false;
    b = std::max(b, 0.0);
  }
  return true;
}

}  // namespace

IlpSolution DenseBranchAndBound::solve(const BinaryProgram& problem) const {
  return search(problem, nullptr);
}

IlpSolution DenseBranchAndBound::solve(
    const BinaryProgram& problem, const std::vector<int>& incumbent) const {
  return search(problem, &incumbent);
}

IlpSolution DenseBranchAndBound::search(
    const BinaryProgram& problem, const std::vector<int>* incumbent) const {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.rows.size();
  const double tol = options_.tolerance;
  IlpSolution best;
  if (incumbent != nullptr && incumbent->size() == n &&
      problem.feasible(*incumbent)) {
    // Warm start: a caller-supplied incumbent (e.g. the previous slot's
    // repaired assignment) replaces the greedy seed and tightens pruning
    // from the first node on.
    best.x = *incumbent;
    best.objective = problem.value(*incumbent);
    best.status = IlpStatus::kFeasible;
  } else {
    best = GreedySolver().solve(problem);  // cold warm start
  }
  best.nodes_explored = 0;

  // LP-guided rounding: floor the relaxation, then greedily pack the
  // remaining fractional/free variables by LP value.  Run at every node so
  // the incumbent tracks the bound closely and pruning stays effective.
  auto try_round = [&](const Fixing& fixing, const std::vector<double>& lp_x) {
    std::vector<int> candidate(n, 0);
    std::vector<double> used(m, 0.0);
    auto fits = [&](std::size_t j) {
      for (std::size_t i = 0; i < m; ++i) {
        if (used[i] + problem.rows[i][j] > problem.rhs[i] + 1e-9) {
          return false;
        }
      }
      return true;
    };
    auto take = [&](std::size_t j) {
      candidate[j] = 1;
      for (std::size_t i = 0; i < m; ++i) used[i] += problem.rows[i][j];
    };
    std::vector<std::pair<double, std::size_t>> rest;
    for (std::size_t j = 0; j < n; ++j) {
      if (fixing[j] == 1) {
        take(j);  // fixed by the node, feasible by construction
      } else if (fixing[j] == -1 && problem.is_eligible(j)) {
        if (lp_x[j] > 1.0 - 1e-6) {
          if (fits(j)) take(j);
        } else if (lp_x[j] > 1e-9 && problem.objective[j] > 0.0) {
          rest.emplace_back(lp_x[j] * problem.objective[j], j);
        }
      }
    }
    std::sort(rest.begin(), rest.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [score, j] : rest) {
      if (fits(j)) take(j);
    }
    const double value = problem.value(candidate);
    if (value > best.objective + tol && problem.feasible(candidate)) {
      best.objective = value;
      best.x = std::move(candidate);
    }
  };

  const LpSolver lp_solver;
  std::vector<Node> stack;
  stack.push_back(Node{Fixing(n, -1)});
  long nodes = 0;
  long pivots = 0;
  bool exhausted_within_limit = true;

  while (!stack.empty()) {
    if (nodes >= options_.max_nodes) {
      exhausted_within_limit = false;
      break;
    }
    const Node node = std::move(stack.back());
    stack.pop_back();
    ++nodes;

    LpProblem lp;
    double base = 0.0;
    if (!build_relaxation(problem, node.fixing, lp, base, tol)) {
      continue;  // fixings alone violate a capacity row
    }
    const LpSolution relaxed = lp_solver.solve(lp);
    pivots += relaxed.iterations;
    if (!relaxed.optimal()) continue;  // treat as prune (cannot bound)
    const double bound = base + relaxed.objective;
    const double prune_margin =
        std::max(tol, options_.relative_gap * std::fabs(best.objective));
    if (bound <= best.objective + prune_margin) continue;

    try_round(node.fixing, relaxed.x);
    if (bound <= best.objective + prune_margin) continue;

    // Find the most fractional variable.
    std::ptrdiff_t branch_var = -1;
    double best_fractionality = tol;
    for (std::size_t j = 0; j < n; ++j) {
      if (node.fixing[j] != -1 || !problem.is_eligible(j)) continue;
      const double frac = std::fabs(relaxed.x[j] - std::round(relaxed.x[j]));
      if (frac > best_fractionality) {
        best_fractionality = frac;
        branch_var = static_cast<std::ptrdiff_t>(j);
      }
    }
    if (branch_var < 0) continue;  // integral: try_round already recorded it

    // Branch: explore x=1 first (pushed last, popped first).
    Node down = node;
    down.fixing[static_cast<std::size_t>(branch_var)] = 0;
    Node up = std::move(node);
    up.fixing[static_cast<std::size_t>(branch_var)] = 1;
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }

  best.nodes_explored = nodes;
  best.lp_pivots = pivots;
  if (!problem.feasible(best.x)) {
    // Only reachable when some rhs[i] < 0: the greedy fallback returned
    // the (infeasible) all-zeros point and every node pruned at the root.
    best.status = IlpStatus::kInfeasible;
  } else {
    best.status =
        exhausted_within_limit ? IlpStatus::kOptimal : IlpStatus::kFeasible;
  }
  return best;
}

IlpSolution ExhaustiveSolver::solve(const BinaryProgram& problem) const {
  IlpSolution solution;
  const std::size_t n = problem.num_vars();
  if (n > max_vars_) {
    solution.status = IlpStatus::kMalformed;
    return solution;
  }
  solution.x.assign(n, 0);
  // Do NOT pre-seed all-zeros as the incumbent: when some rhs[i] < 0 even
  // the empty selection violates that row and the problem is infeasible.
  solution.objective = 0.0;
  solution.status = IlpStatus::kInfeasible;
  bool found_feasible = false;
  std::vector<int> candidate(n, 0);
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    for (std::size_t j = 0; j < n; ++j) {
      candidate[j] = (mask >> j) & 1 ? 1 : 0;
    }
    ++solution.nodes_explored;
    if (!problem.feasible(candidate)) continue;
    const double value = problem.value(candidate);
    if (!found_feasible || value > solution.objective) {
      found_feasible = true;
      solution.objective = value;
      solution.x = candidate;
      solution.status = IlpStatus::kOptimal;
    }
  }
  return solution;
}

}  // namespace lpvs::solver::oracle
