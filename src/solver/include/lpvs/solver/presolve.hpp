// Presolve for the per-slot binary program: cheap, provably-safe
// reductions applied before branch-and-bound touches a single LP node.
//
// The slot ILPs produced by phase1_program() have a lot of exploitable
// structure: constraint (11)'s compacted eligibility mask already fixes the
// ineligible devices to zero, non-positive objective entries can never help
// a maximization, a single coefficient larger than its row's rhs dominates
// the variable out of the problem, rows slack enough to absorb every free
// variable are redundant, and one capacity row can dominate another
// outright.  Running these to a fixed point routinely shrinks loose
// instances to the point where the root LP relaxation is already integral
// (a 0-node solve).
//
// Every rule is conservative: reductions never cut off an optimal solution
// of the original program, and expand_solution() lifts a reduced solution
// back losslessly.  Determinism: the reductions are pure index-ordered
// scans, so identical inputs always produce identical maps.
#pragma once

#include <cstdint>
#include <vector>

#include "lpvs/solver/ilp.hpp"

namespace lpvs::solver {

/// Outcome of presolving a BinaryProgram.
struct PresolveResult {
  bool malformed = false;   ///< shapes inconsistent; nothing else is valid
  bool infeasible = false;  ///< some rhs < -tol: no binary point fits

  /// Per-original-variable fixing: -1 free, 0 fixed to zero, 1 fixed to one.
  std::vector<signed char> fixed;
  /// Objective contributed by the variables fixed to one.
  double fixed_objective = 0.0;

  std::vector<std::uint32_t> var_map;  ///< reduced var -> original var
  std::vector<std::uint32_t> row_map;  ///< reduced row -> original row

  /// The surviving program over the free variables and active rows.  Its
  /// eligibility mask is empty (every surviving variable is eligible).
  BinaryProgram reduced;
};

/// Runs the reduction rules to a fixed point.  `tol` is the feasibility
/// tolerance used for rhs sign checks and domination comparisons.
PresolveResult presolve_binary_program(const BinaryProgram& problem,
                                       double tol);

/// A second reduction on top of presolve: fixes variables of a presolved
/// program (every variable eligible) by `fixed` (-1 free, 0, 1) and
/// compacts `program` in place into the result's `reduced` (pass it with
/// std::move to avoid a copy).  Fixed-to-one columns move into the rhs and
/// their objective into `fixed_objective`; a free variable that alone
/// overflows a residual row is then fixed to zero, as presolve's
/// coefficient domination would.  Rows are kept (`row_map` is the
/// identity).  Fixings to one that do not fit a row together (LP
/// round-off) are dropped rather than trusted.  Branch-and-bound applies
/// it to the root's reduced-cost fixings.
PresolveResult fix_variables(BinaryProgram program,
                             std::vector<signed char> fixed, double tol);

/// Lifts a reduced-space assignment back to the original index space
/// (fixed variables take their fixed values).
std::vector<int> expand_solution(const PresolveResult& presolve,
                                 const std::vector<int>& reduced_x);

}  // namespace lpvs::solver
