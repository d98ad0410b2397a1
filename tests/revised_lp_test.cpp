// Unit tests for RevisedLpSolver's public surface beyond the differential
// harness: load() validation, bound overrides, basis snapshots, and the
// allocation-free branch-and-bound kernel (set_fixings, solve_in_place,
// resolve_in_place, resolve_trusted), which promises exactly the bits of
// its public counterparts.  Every comparison below is therefore ==, not
// NEAR: the kernel may skip copies and checks, never change arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/revised_lp.hpp"

namespace lpvs::solver {
namespace {

constexpr int kTrials = 120;

/// Random binary-relaxation LP (uppers 1, the B&B shape): 2..12 variables,
/// 1..3 knapsack rows binding at 20-80% of their total weight.
LpProblem random_binary_relaxation(common::Rng& rng) {
  LpProblem p;
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 3));
  p.objective.resize(n);
  for (auto& c : p.objective) c = rng.uniform(-2.0, 10.0);
  p.rows.assign(m, std::vector<double>(n));
  p.rhs.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    double total = 0.0;
    for (auto& a : p.rows[i]) {
      a = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.2, 6.0);
      total += a;
    }
    p.rhs[i] = total * rng.uniform(0.2, 0.8);
  }
  p.upper.assign(n, 1.0);
  return p;
}

/// Random B&B fixing vector: each variable free (-1), pinned to 0, or
/// pinned to 1.
std::vector<signed char> random_fixing(common::Rng& rng, std::size_t n) {
  std::vector<signed char> fixing(n);
  for (auto& f : fixing) {
    const double roll = rng.uniform();
    f = roll < 0.6 ? -1 : (roll < 0.8 ? 0 : 1);
  }
  return fixing;
}

void apply_fixing_by_bounds(RevisedLpSolver& engine,
                            const std::vector<signed char>& fixing) {
  engine.reset_bounds();
  for (std::size_t j = 0; j < fixing.size(); ++j) {
    if (fixing[j] == 0) engine.set_bounds(j, 0.0, 0.0);
    if (fixing[j] == 1) engine.set_bounds(j, 1.0, 1.0);
  }
}

void expect_same_bits(const LpSolution& want,
                      const RevisedLpSolver::Result& got,
                      const std::vector<double>& got_x, int trial) {
  ASSERT_EQ(got.status, want.status) << "trial " << trial;
  EXPECT_EQ(got.iterations, want.iterations) << "trial " << trial;
  if (!want.optimal()) return;
  EXPECT_EQ(got.objective, want.objective) << "trial " << trial;
  EXPECT_EQ(got_x, want.x) << "trial " << trial;
}

TEST(RevisedLpLoad, RejectsShapeMismatchNanUpperAndNonFiniteRhs) {
  LpProblem good;
  good.objective = {1.0, 2.0};
  good.rows = {{1.0, 1.0}};
  good.rhs = {1.5};
  good.upper = {1.0, 1.0};
  RevisedLpSolver engine;
  EXPECT_TRUE(engine.load(good));
  EXPECT_EQ(engine.num_vars(), 2u);
  EXPECT_EQ(engine.num_rows(), 1u);

  LpProblem short_upper = good;
  short_upper.upper = {1.0};
  EXPECT_FALSE(engine.load(short_upper));

  LpProblem ragged_row = good;
  ragged_row.rows = {{1.0}};
  EXPECT_FALSE(engine.load(ragged_row));

  LpProblem missing_rhs = good;
  missing_rhs.rhs.clear();
  EXPECT_FALSE(engine.load(missing_rhs));

  LpProblem nan_upper = good;
  nan_upper.upper[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine.load(nan_upper));

  LpProblem negative_upper = good;
  negative_upper.upper[0] = -1.0;
  EXPECT_FALSE(engine.load(negative_upper));

  LpProblem infinite_rhs = good;
  infinite_rhs.rhs[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(engine.load(infinite_rhs));

  // Unlike oracle::well_formed, a negative rhs loads (dual phase 1
  // handles it) and an infinite upper is a legal open box.
  LpProblem negative_rhs = good;
  negative_rhs.rhs[0] = -1.0;
  EXPECT_TRUE(engine.load(negative_rhs));
  EXPECT_EQ(engine.solve().status, LpStatus::kInfeasible);

  LpProblem open_box = good;
  open_box.upper[0] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(engine.load(open_box));
}

TEST(RevisedLpBounds, SetBoundsPinsAndResetRestoresTheLoadedBoxes) {
  // max 3a + 2b  s.t.  a + b <= 1.5, a, b in [0, 1]: optimum a = 1, b = 0.5.
  LpProblem p;
  p.objective = {3.0, 2.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {1.5};
  p.upper = {1.0, 1.0};
  RevisedLpSolver engine;
  ASSERT_TRUE(engine.load(p));
  const LpSolution free_solve = engine.solve();
  ASSERT_TRUE(free_solve.optimal());
  EXPECT_NEAR(free_solve.objective, 4.0, 1e-9);

  engine.set_bounds(0, 0.0, 0.0);  // branch a = 0: b alone, at its upper
  const LpSolution pinned = engine.solve();
  ASSERT_TRUE(pinned.optimal());
  EXPECT_NEAR(pinned.objective, 2.0, 1e-9);
  EXPECT_EQ(pinned.x[0], 0.0);

  engine.set_bounds(1, 1.0, 1.0);  // and b = 1 on top
  const LpSolution both = engine.solve();
  ASSERT_TRUE(both.optimal());
  EXPECT_NEAR(both.objective, 2.0, 1e-9);
  EXPECT_NEAR(both.x[1], 1.0, 1e-12);

  engine.reset_bounds();
  const LpSolution restored = engine.solve();
  ASSERT_TRUE(restored.optimal());
  EXPECT_EQ(restored.objective, free_solve.objective);
  EXPECT_EQ(restored.x, free_solve.x);
}

TEST(RevisedLpBounds, ConflictingFixingsAreInfeasible) {
  // Both variables pinned to 1 need 2 units of a 1.5-unit row.
  LpProblem p;
  p.objective = {1.0, 1.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {1.5};
  p.upper = {1.0, 1.0};
  RevisedLpSolver engine;
  ASSERT_TRUE(engine.load(p));
  const signed char fixing[] = {1, 1};
  engine.set_fixings(fixing);
  EXPECT_EQ(engine.solve_in_place().status, LpStatus::kInfeasible);
}

TEST(RevisedLpKernel, SolveInPlaceMatchesSolveBitForBit) {
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(31000 + static_cast<std::uint64_t>(trial));
    const LpProblem p = random_binary_relaxation(rng);
    RevisedLpSolver reference;
    RevisedLpSolver kernel;
    ASSERT_TRUE(reference.load(p));
    ASSERT_TRUE(kernel.load(p));
    const LpSolution want = reference.solve();
    const RevisedLpSolver::Result got = kernel.solve_in_place();
    expect_same_bits(want, got, kernel.x(), trial);
  }
}

TEST(RevisedLpKernel, SetFixingsEqualsResetThenSetBounds) {
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(32000 + static_cast<std::uint64_t>(trial));
    const LpProblem p = random_binary_relaxation(rng);
    RevisedLpSolver by_bounds;
    RevisedLpSolver by_fixings;
    ASSERT_TRUE(by_bounds.load(p));
    ASSERT_TRUE(by_fixings.load(p));
    // Two rounds, so the second set_fixings must also undo the first.
    for (int round = 0; round < 2; ++round) {
      const std::vector<signed char> fixing =
          random_fixing(rng, p.num_vars());
      apply_fixing_by_bounds(by_bounds, fixing);
      by_fixings.set_fixings(fixing.data());
      const LpSolution want = by_bounds.solve();
      const RevisedLpSolver::Result got = by_fixings.solve_in_place();
      expect_same_bits(want, got, by_fixings.x(), trial);
      if (want.optimal()) {
        for (std::size_t j = 0; j < fixing.size(); ++j) {
          if (fixing[j] >= 0) {
            EXPECT_EQ(by_fixings.x()[j], static_cast<double>(fixing[j]))
                << "trial " << trial << " var " << j;
          }
        }
      }
    }
  }
}

TEST(RevisedLpKernel, BasisAccessorsMirrorTheSnapshot) {
  for (int trial = 0; trial < 40; ++trial) {
    common::Rng rng(33000 + static_cast<std::uint64_t>(trial));
    const LpProblem p = random_binary_relaxation(rng);
    RevisedLpSolver engine;
    ASSERT_TRUE(engine.load(p));
    ASSERT_TRUE(engine.solve_in_place().optimal()) << "trial " << trial;
    const SimplexBasis snapshot = engine.basis();
    EXPECT_EQ(snapshot.basic, engine.basic_vars()) << "trial " << trial;
    EXPECT_EQ(snapshot.state, engine.var_states()) << "trial " << trial;
    ASSERT_EQ(snapshot.basic.size(), p.num_rows());
    ASSERT_EQ(snapshot.state.size(), p.num_vars() + p.num_rows());
    // Every listed basic variable is marked basic, and exactly m are.
    int basic_count = 0;
    for (std::uint8_t s : snapshot.state) basic_count += s == 2 ? 1 : 0;
    EXPECT_EQ(basic_count, static_cast<int>(p.num_rows()));
    for (std::uint32_t var : snapshot.basic) {
      ASSERT_LT(var, snapshot.state.size());
      EXPECT_EQ(snapshot.state[var], 2) << "trial " << trial;
    }
  }
}

TEST(RevisedLpKernel, ColdSolveCountsItsPrimalPivots) {
  // Nonnegative rhs makes the slack basis primal feasible, so a cold solve
  // runs the primal phase alone, from every structural at its lower bound
  // 0.  Each structural nonzero at the optimum entered at least once, and
  // every entering move (pivot or bound flip) is one counted iteration.
  int with_support = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(36000 + static_cast<std::uint64_t>(trial));
    const LpProblem p = random_binary_relaxation(rng);
    RevisedLpSolver engine;
    ASSERT_TRUE(engine.load(p));
    const LpSolution solution = engine.solve();
    ASSERT_TRUE(solution.optimal()) << "trial " << trial;
    int support = 0;
    for (double v : solution.x) support += v > 1e-9 ? 1 : 0;
    with_support += support > 0 ? 1 : 0;
    EXPECT_GE(solution.iterations, support) << "trial " << trial;
  }
  EXPECT_GT(with_support, kTrials / 2);
}

TEST(RevisedLpKernel, ResolveInPlaceMatchesResolveAfterABranch) {
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(34000 + static_cast<std::uint64_t>(trial));
    const LpProblem p = random_binary_relaxation(rng);
    RevisedLpSolver reference;
    RevisedLpSolver kernel;
    ASSERT_TRUE(reference.load(p));
    ASSERT_TRUE(kernel.load(p));
    if (!reference.solve().optimal()) continue;
    ASSERT_TRUE(kernel.solve_in_place().optimal());
    const SimplexBasis parent = reference.basis();
    ASSERT_EQ(parent, kernel.basis()) << "trial " << trial;

    const std::vector<signed char> fixing = random_fixing(rng, p.num_vars());
    apply_fixing_by_bounds(reference, fixing);
    kernel.set_fixings(fixing.data());
    const LpSolution want = reference.resolve(parent);
    const RevisedLpSolver::Result got = kernel.resolve_in_place(parent);
    expect_same_bits(want, got, kernel.x(), trial);
  }
}

TEST(RevisedLpKernel, ResolveTrustedMatchesResolveFromOwnBasis) {
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(35000 + static_cast<std::uint64_t>(trial));
    const LpProblem p = random_binary_relaxation(rng);
    RevisedLpSolver reference;
    RevisedLpSolver kernel;
    ASSERT_TRUE(reference.load(p));
    ASSERT_TRUE(kernel.load(p));
    if (!reference.solve().optimal()) continue;
    ASSERT_TRUE(kernel.solve_in_place().optimal());
    const SimplexBasis parent = kernel.basis();

    // A B&B child: one more variable pinned, every bound finite.
    std::vector<signed char> fixing(p.num_vars(), -1);
    const auto branch = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(p.num_vars()) - 1));
    fixing[branch] = rng.uniform() < 0.5 ? 0 : 1;
    apply_fixing_by_bounds(reference, fixing);
    kernel.set_fixings(fixing.data());
    const LpSolution want = reference.resolve(parent);
    const RevisedLpSolver::Result got =
        kernel.resolve_trusted(parent.basic.data(), parent.state.data());
    expect_same_bits(want, got, kernel.x(), trial);
  }
}

TEST(RevisedLpKernel, ReducedCostsCertifyTheOptimum) {
  // At an optimum no nonbasic variable prices as improving, basic ones
  // price at zero, a slack's reduced cost is minus its row's dual, and
  // the duals close the gap: y.b + sum of d_j over variables at their
  // upper bound is the objective (what root reduced-cost fixing uses).
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(9100 + static_cast<std::uint64_t>(trial));
    const LpProblem p = random_binary_relaxation(rng);
    RevisedLpSolver engine;
    ASSERT_TRUE(engine.load(p));
    const RevisedLpSolver::Result r = engine.solve_in_place();
    ASSERT_TRUE(r.optimal()) << "trial seed " << 9100 + trial;
    const std::size_t n = p.num_vars();
    const std::size_t m = p.num_rows();
    double dual_value = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      dual_value += -engine.reduced_cost(n + i) * p.rhs[i];
    }
    for (std::size_t j = 0; j < n + m; ++j) {
      const double d = engine.reduced_cost(j);
      const std::uint8_t state = engine.var_states()[j];
      if (state == 2) {
        EXPECT_NEAR(d, 0.0, 1e-9) << "trial seed " << 9100 + trial;
      } else if (state == 1) {
        EXPECT_GE(d, -1e-9) << "trial seed " << 9100 + trial;
        dual_value += d * p.upper[j];
      } else {
        EXPECT_LE(d, 1e-9) << "trial seed " << 9100 + trial;
      }
      if (j < n) {
        double priced = p.objective[j];
        for (std::size_t i = 0; i < m; ++i) {
          priced -= -engine.reduced_cost(n + i) * p.rows[i][j];
        }
        EXPECT_NEAR(d, priced, 1e-9) << "trial seed " << 9100 + trial;
      }
    }
    EXPECT_NEAR(dual_value, r.objective, 1e-7) << "trial seed " << 9100 + trial;
  }
}

TEST(RevisedLpKernel, MismatchedSnapshotFallsBackToColdSolve) {
  common::Rng rng(36000);
  const LpProblem p = random_binary_relaxation(rng);
  RevisedLpSolver engine;
  ASSERT_TRUE(engine.load(p));
  const LpSolution cold = engine.solve();
  ASSERT_TRUE(cold.optimal());

  // A snapshot from a problem with one more row does not fit this one.
  SimplexBasis foreign = engine.basis();
  foreign.basic.push_back(0);
  foreign.state.push_back(2);
  const LpSolution warm = engine.resolve(foreign);
  ASSERT_TRUE(warm.optimal());
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.x, cold.x);

  const LpSolution from_empty = engine.resolve(SimplexBasis{});
  ASSERT_TRUE(from_empty.optimal());
  EXPECT_EQ(from_empty.objective, cold.objective);
}

}  // namespace
}  // namespace lpvs::solver
