// Revised simplex with bounded variables, a maintained factorized basis,
// and a dual-simplex re-solve path.
//
// This is the one LP engine of the served solver.  A dense simplex that
// rebuilds and re-inverts the basis from scratch on every pivot of every
// solve (kept as a test oracle, lpvs/solver/oracle.hpp) is fine for
// one-off LPs but is the measured wall for branch-and-bound over
// fleet-sized slot problems: each B&B node pays O(n) bound-flip iterations
// with an O(m * (n+m)) refresh apiece.  This engine keeps the problem
// loaded across solves and maintains B^-1 explicitly, updated by a
// product-form (eta) transformation per pivot with periodic
// refactorization, so
//
//   - a cold solve runs the bounded primal simplex with incremental basic
//     values (no per-pivot re-inversion), and
//   - a re-solve from a known basis (the B&B parent node's, or the root
//     basis carried across reduced-cost fixing) refactorizes once and then
//     runs the bounded *dual* simplex: after a branch fixes a variable's
//     bounds the parent basis stays dual feasible and only a couple of
//     primal violations need pivoting out, which is why the dual method is
//     the natural warm-start engine.
//
// Feasibility phase: when a starting basis is neither primal nor dual
// feasible (negative rhs, shifted bounds), reduced costs are temporarily
// shifted just enough to make the basis dual feasible ("cost shifting"),
// the dual simplex then drives it to primal feasibility or proves the rows
// infeasible (the certificate is objective-independent), and the true
// objective is restored for the final primal clean-up.  So the engine
// accepts rhs < 0 and reports LpStatus::kInfeasible, where a primal-only
// simplex must require rhs >= 0.
//
// Determinism: identical inputs produce identical pivot sequences (Dantzig
// pricing with a Bland fallback after a degeneracy streak, index-ordered
// tie-breaks), so solves are bit-reproducible across runs and thread
// counts.  The engine is not thread-safe; create one per solve or guard
// externally (BranchAndBoundSolver creates one per solve() call).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lpvs/solver/lp.hpp"

namespace lpvs::solver {

/// A simplex basis snapshot: which variable occupies each basis slot and
/// the lower/upper/basic state of every variable (structural then slack).
/// Cheap to copy; B&B child nodes share their parent's snapshot.
struct SimplexBasis {
  std::vector<std::uint32_t> basic;  ///< size m: variable index per row
  std::vector<std::uint8_t> state;   ///< size n+m: 0 lower, 1 upper, 2 basic

  bool empty() const { return basic.empty(); }
  bool operator==(const SimplexBasis&) const = default;
};

/// Bounded-variable revised simplex over a loaded problem.
///
///   max c.x  s.t.  A x <= b,  lower <= x <= upper
///
/// load() takes an LpProblem (bounds [0, upper]); set_bounds() then
/// tightens individual variables (how B&B applies branch fixings without
/// rebuilding anything).  solve() starts cold from the slack basis;
/// resolve() starts from a caller-provided basis snapshot.
class RevisedLpSolver {
 public:
  struct Options {
    int max_iterations = 200000;
    double tolerance = 1e-9;
    /// Rebuild B^-1 from scratch every this many eta updates (numerical
    /// hygiene; eta round-off compounds).
    int refactor_interval = 64;
  };

  RevisedLpSolver() : RevisedLpSolver(Options{}) {}
  explicit RevisedLpSolver(Options options) : options_(options) {}

  /// Loads the problem (copied, column-major).  Returns false on shape
  /// mismatch or NaN bounds.  Negative rhs is accepted — the dual phase 1
  /// handles it.
  bool load(const LpProblem& problem);

  /// Overrides variable j's box to [lower, upper] (0 <= j < num_vars()).
  /// B&B branch fixings are set_bounds(j, 0, 0) / set_bounds(j, 1, 1).
  void set_bounds(std::size_t var, double lower, double upper);

  /// Restores every variable's box to the loaded problem's [0, upper_j].
  void reset_bounds();

  /// Cold solve from the slack basis.
  LpSolution solve();

  /// Warm re-solve from `from` (typically the parent node's optimal basis;
  /// bounds/coefficients may have changed since).
  /// Falls back to a cold solve when the snapshot does not fit the loaded
  /// problem or its basis matrix is singular under the new coefficients.
  LpSolution resolve(const SimplexBasis& from);

  /// Snapshot of the current basis (valid after solve()/resolve()).
  SimplexBasis basis() const;

  std::size_t num_vars() const { return n_; }
  std::size_t num_rows() const { return m_; }

  // --- Allocation-free kernel for branch-and-bound. ---
  //
  // The calls below produce exactly the bits of their public counterparts
  // (same floating-point operations in the same order, same tie-breaks);
  // they only skip copies and checks that B&B does not need.

  /// Outcome of an in-place solve; the primal point stays in x().
  struct Result {
    LpStatus status = LpStatus::kMalformed;
    double objective = 0.0;
    int iterations = 0;

    bool optimal() const { return status == LpStatus::kOptimal; }
  };

  /// Sets every structural box from a per-variable fixing in one pass:
  /// -1 restores the loaded [0, upper_j], 0 pins [0, 0], 1 pins [1, 1].
  /// Equivalent to reset_bounds() followed by set_bounds() per fixed var.
  void set_fixings(const signed char* fixing);

  /// solve() / resolve() without building an LpSolution.
  Result solve_in_place();
  Result resolve_in_place(const SimplexBasis& from);

  /// Warm re-solve from a basis this engine produced on the loaded problem
  /// (a B&B parent's), given as `basic` (size m) and `state` (size n+m).
  /// Skips resolve()'s snapshot validation and its infinite-upper sweep,
  /// so bounds may only have changed to finite values since the snapshot.
  Result resolve_trusted(const std::uint32_t* basic,
                         const std::uint8_t* state);

  /// Primal point of the last optimal in-place solve (size n).
  const std::vector<double>& x() const { return x_; }
  /// Reduced cost d_j = c_j - sum_k y_k a_kj of variable j (structural or
  /// slack) under the duals y of the last optimal in-place solve: the
  /// value pricing computed, summed in ascending row order.
  double reduced_cost(std::size_t var) const;
  /// Current basis: variable index per row (size m) and per-variable
  /// lower/upper/basic state (size n+m), as snapshotted by basis().
  const std::vector<std::uint32_t>& basic_vars() const { return basis_; }
  const std::vector<std::uint8_t>& var_states() const { return state_; }

 private:
  bool refactorize();
  void compute_basic_values();
  double column_entry(std::size_t var, std::size_t row) const;
  double nonbasic_value(std::size_t var) const;
  void compute_column(std::size_t var, std::vector<double>& w) const;
  void eta_update(const std::vector<double>& w, std::size_t row);
  bool primal_feasible() const;
  void compute_y(const std::vector<double>& costs);
  /// Refreshes dir_[var] after a state change.
  void update_direction(std::size_t var);
  /// Shifts nonbasic reduced costs into dual feasibility, writing the
  /// shifted cost vector (size n+m) to shifted_.
  void shift_costs();
  LpStatus primal_phase(const std::vector<double>& costs, int& iters);
  LpStatus dual_phase(const std::vector<double>& costs, int& iters);
  Result run();
  Result extract(LpStatus status, int iters);
  LpSolution to_solution(const Result& result) const;

  Options options_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t total_ = 0;
  std::vector<double> cols_;   ///< structural columns, column-major n*m
  std::vector<double> costs_;  ///< true costs, size n+m (slack cost = 0)
  std::vector<double> rhs_;    ///< size m
  std::vector<double> lower_;  ///< size n+m (slack lower = 0)
  std::vector<double> upper_;  ///< size n+m (slack upper = +inf)
  std::vector<double> problem_upper_;  ///< loaded uppers for reset_bounds

  std::vector<std::uint32_t> basis_;  ///< size m
  std::vector<std::uint8_t> state_;   ///< size n+m
  /// Pricing direction per variable: +1 nonbasic at lower, -1 nonbasic at
  /// upper, 0 basic or fixed in place.  Turns each "is this candidate
  /// improving" branch into one sign test on a product.
  std::vector<double> dir_;
  std::vector<double> binv_;          ///< m*m row-major
  std::vector<double> xb_;            ///< basic values, size m
  int pivots_since_refactor_ = 0;

  // Scratch (sized in load, reused across solves).
  std::vector<double> y_;
  std::vector<double> w_;
  std::vector<double> shifted_;   ///< dual-phase costs, size n+m
  std::vector<double> factor_;    ///< refactorization work matrix, m*m
  std::vector<double> inverse_;   ///< refactorization result, m*m
  std::vector<double> residual_;  ///< b - A_N x_N, size m
  /// Variable lists built branch-free by the kernels (nonbasic variables
  /// off zero, dual ratio candidates) with one value each; size n+m.
  std::vector<std::uint32_t> listed_;
  std::vector<double> listed_value_;
  std::vector<double> x_;         ///< primal point, size n
};

}  // namespace lpvs::solver
