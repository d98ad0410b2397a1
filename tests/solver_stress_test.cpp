// Stress and adversarial tests for the optimization substrate: degenerate,
// duplicated, ill-scaled and tie-heavy instances that historically break
// simplex/B&B implementations (cycling, bound-flip loops, incumbent
// staleness).  Everything here must terminate and stay feasible.
#include <gtest/gtest.h>

#include <chrono>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/oracle.hpp"

namespace lpvs::solver {
namespace {

using oracle::KnapsackDpSolver;
using oracle::LpSolver;

TEST(LpStress, ManyIdenticalColumnsDegenerateTies) {
  // 200 identical columns against one tight row: maximal tie-breaking
  // pressure on the pricing rule.
  const std::size_t n = 200;
  LpProblem p;
  p.objective.assign(n, 1.0);
  p.rows.assign(1, std::vector<double>(n, 1.0));
  p.rhs = {50.0};
  p.upper.assign(n, 1.0);
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 50.0, 1e-6);
}

TEST(LpStress, WildlyMixedScales) {
  // Coefficients spanning nine orders of magnitude.
  LpProblem p;
  p.objective = {1e6, 1e-3, 1.0};
  p.rows = {{1e5, 1e-4, 1.0}};
  p.rhs = {1e5};
  p.upper = {1.0, 1.0, 1.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  // Everything fits (1e5*1 + tiny + 1 > 1e5? no: 1e5 + 1.0001 > 1e5, so
  // the row binds and the cheapest contributor is shaved).
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_GE(s.x[j], -1e-9);
    EXPECT_LE(s.x[j], 1.0 + 1e-9);
  }
  double lhs = 0.0;
  for (std::size_t j = 0; j < 3; ++j) lhs += p.rows[0][j] * s.x[j];
  EXPECT_LE(lhs, p.rhs[0] * (1.0 + 1e-9));
}

TEST(LpStress, ZeroRowsPureBoundProblem) {
  const std::size_t n = 100;
  LpProblem p;
  p.objective.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = (j % 2 == 0) ? 1.0 : -1.0;
  }
  p.upper.assign(n, 0.5);
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 25.0, 1e-9);  // 50 positive vars at 0.5
}

TEST(LpStress, AllZeroColumnVariables) {
  // Variables that appear in no constraint must simply go to their bound.
  LpProblem p;
  p.objective = {3.0, 2.0};
  p.rows = {{0.0, 1.0}};
  p.rhs = {0.5};
  p.upper = {1.0, 1.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.5, 1e-9);
}

TEST(LpStress, TerminatesQuicklyOnLargeTieHeavyInstance) {
  const std::size_t n = 2000;
  LpProblem p;
  p.objective.assign(n, 1.0);
  p.rows.assign(2, std::vector<double>(n, 1.0));
  p.rhs = {500.0, 700.0};
  p.upper.assign(n, 1.0);
  const auto t0 = std::chrono::steady_clock::now();
  const LpSolution s = LpSolver().solve(p);
  const auto t1 = std::chrono::steady_clock::now();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 500.0, 1e-5);
  EXPECT_LT(std::chrono::duration<double>(t1 - t0).count(), 30.0);
}

TEST(BnbStress, DuplicateItemsEverywhere) {
  // 24 copies of the same item; any subset of 10 is optimal — B&B must
  // not wander the exponentially many symmetric optima.
  const std::size_t n = 24;
  BinaryProgram p;
  p.objective.assign(n, 5.0);
  p.rows.assign(1, std::vector<double>(n, 2.0));
  p.rhs = {20.0};
  BranchAndBoundSolver::Options options;
  options.max_nodes = 5000;
  const IlpSolution s = BranchAndBoundSolver(options).solve(p);
  EXPECT_NEAR(s.objective, 50.0, 1e-9);
  EXPECT_TRUE(p.feasible(s.x));
}

TEST(BnbStress, AllIneligible) {
  BinaryProgram p;
  p.objective = {5.0, 6.0, 7.0};
  p.rows = {{1.0, 1.0, 1.0}};
  p.rhs = {10.0};
  p.eligible = {0, 0, 0};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  EXPECT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(BnbStress, AllNegativeValues) {
  BinaryProgram p;
  p.objective = {-1.0, -2.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {10.0};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
  EXPECT_EQ(s.x, (std::vector<int>{0, 0}));
}

TEST(BnbStress, SingleItemLargerThanEverything) {
  // One huge-value item that consumes the whole capacity vs many small
  // ones adding up to slightly less: classic B&B trap.
  BinaryProgram p;
  p.objective = {100.0};
  p.rows = {{10.0}};
  p.rhs = {10.0};
  for (int i = 0; i < 20; ++i) {
    p.objective.push_back(4.9);
    p.rows[0].push_back(0.5);
  }
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  EXPECT_TRUE(p.feasible(s.x));
  EXPECT_GE(s.objective, 100.0 - 1e-9);
}

TEST(BnbStress, NearIntegerCoefficients) {
  // Coefficients epsilon away from integers probe tolerance handling.
  BinaryProgram p;
  p.objective = {1.0 + 1e-10, 1.0 - 1e-10, 1.0};
  p.rows = {{1.0 + 1e-12, 1.0, 1.0 - 1e-12}};
  p.rhs = {2.0};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  EXPECT_TRUE(p.feasible(s.x));
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST(BnbStress, TruncatedBudgetStillReportsInfeasible) {
  // Regression for the degradation-ladder path: an instance with a
  // negative rhs admits NO 0/1 point, and a solve truncated to a single
  // node (the smallest budget the ladder hands out) must still say
  // kInfeasible — never kFeasible with a stale all-zeros "incumbent".
  BinaryProgram p;
  p.objective = {5.0, 3.0, 8.0};
  p.rows = {{1.0, 1.0, 1.0}, {2.0, 0.5, 1.0}};
  p.rhs = {4.0, -1.0};
  BranchAndBoundSolver::Options options;
  options.max_nodes = 1;
  const BranchAndBoundSolver served(options);
  const oracle::DenseBranchAndBound dense(options);
  EXPECT_EQ(served.solve(p).status, IlpStatus::kInfeasible);
  EXPECT_EQ(dense.solve(p).status, IlpStatus::kInfeasible);
  // A (necessarily bogus) warm incumbent must not smuggle in a feasible
  // verdict either: the incumbent is infeasible by construction, so the
  // solver must reject it and reach the same conclusion.
  const std::vector<int> bogus = {1, 1, 1};
  EXPECT_EQ(served.solve(p, bogus).status, IlpStatus::kInfeasible);
  EXPECT_EQ(dense.solve(p, bogus).status, IlpStatus::kInfeasible);
}

TEST(BnbStress, TruncatedBudgetInfeasibleAcrossRandomInstances) {
  // Same property across random negative-rhs programs and budgets: with
  // non-negative rows, rhs < 0 is a proof of infeasibility, and no node
  // budget — 1, 2, or plenty — may convert it into a feasible answer.
  for (int trial = 0; trial < 100; ++trial) {
    common::Rng rng(21000 + static_cast<std::uint64_t>(trial));
    BinaryProgram p;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
    p.objective.resize(n);
    for (auto& c : p.objective) c = rng.uniform(-5.0, 50.0);
    p.rows.assign(2, std::vector<double>(n));
    for (auto& row : p.rows) {
      for (auto& a : row) a = rng.uniform(0.0, 10.0);
    }
    p.rhs = {rng.uniform(0.0, 20.0), rng.uniform(-10.0, -0.01)};
    BranchAndBoundSolver::Options options;
    options.max_nodes = static_cast<long>(rng.uniform_int(1, 64));
    ASSERT_EQ(BranchAndBoundSolver(options).solve(p).status,
              IlpStatus::kInfeasible)
        << "trial seed " << 21000 + trial << " budget " << options.max_nodes;
    ASSERT_EQ(oracle::DenseBranchAndBound(options).solve(p).status,
              IlpStatus::kInfeasible)
        << "trial seed " << 21000 + trial << " budget " << options.max_nodes
        << " (dense oracle)";
  }
}

TEST(BnbStress, TruncatedBudgetWithFixedRootStillReportsInfeasible) {
  // The same property once the B&B root has fixed variables
  // by reduced cost.  A row whose rhs is negative but within the solver
  // tolerance passes presolve and the root relaxation, yet no 0/1 point
  // satisfies it, so the solve reaches the root, fixes and searches, and
  // must still say kInfeasible.  One "anchor" item is worth far more than
  // the "dust" that fills the rest of the binding row, so the row's dual
  // price is tiny and the root fixes the anchor to one.
  long fixed = 0;
  for (int trial = 0; trial < 100; ++trial) {
    common::Rng rng(23000 + static_cast<std::uint64_t>(trial));
    const auto n = static_cast<std::size_t>(rng.uniform_int(4, 16));
    BinaryProgram p;
    p.objective.resize(n);
    p.rows.assign(2, std::vector<double>(n, 0.0));
    for (std::size_t j = 0; j < n; ++j) {
      p.objective[j] = j == 0 ? rng.uniform(20.0, 50.0)
                              : rng.uniform(5e-9, 2e-8);
      p.rows[0][j] = rng.uniform(0.5, 2.0);
    }
    p.rhs = {p.rows[0][0] + rng.uniform(0.5, 2.0),
             rng.uniform(-9e-8, -2e-9)};
    BranchAndBoundSolver::Options options;
    options.max_nodes = static_cast<long>(rng.uniform_int(1, 64));
    const IlpSolution s = BranchAndBoundSolver(options).solve(p);
    ASSERT_EQ(s.status, IlpStatus::kInfeasible)
        << "trial seed " << 23000 + trial << " budget " << options.max_nodes;
    fixed += s.root_fixed;
    ASSERT_EQ(oracle::DenseBranchAndBound(options).solve(p).status,
              IlpStatus::kInfeasible)
        << "trial seed " << 23000 + trial << " budget " << options.max_nodes
        << " (dense oracle)";
  }
  EXPECT_GT(fixed, 0);  // the roots did fix variables
}

TEST(KnapsackStress, ManyZeroWeightItems) {
  const std::size_t n = 50;
  BinaryProgram p;
  p.objective.assign(n, 1.0);
  p.rows.assign(1, std::vector<double>(n, 0.0));
  p.rhs = {1.0};
  const IlpSolution s = KnapsackDpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 50.0);  // all free items taken
}

TEST(KnapsackStress, TinyResolutionStaysFeasible) {
  common::Rng rng(1);
  KnapsackDpSolver::Options options;
  options.resolution = 3;  // absurdly coarse
  const KnapsackDpSolver solver(options);
  for (int trial = 0; trial < 20; ++trial) {
    BinaryProgram p;
    const std::size_t n = 10;
    p.objective.resize(n);
    p.rows.assign(1, std::vector<double>(n));
    for (std::size_t j = 0; j < n; ++j) {
      p.objective[j] = rng.uniform(1.0, 5.0);
      p.rows[0][j] = rng.uniform(0.1, 2.0);
    }
    p.rhs = {4.0};
    const IlpSolution s = solver.solve(p);
    EXPECT_TRUE(p.feasible(s.x)) << trial;
  }
}

TEST(GreedyStress, ZeroCapacityRow) {
  BinaryProgram p;
  p.objective = {1.0, 2.0};
  p.rows = {{1.0, 0.0}};
  p.rhs = {0.0};
  const IlpSolution s = GreedySolver().solve(p);
  EXPECT_TRUE(p.feasible(s.x));
  EXPECT_EQ(s.x[0], 0);
  EXPECT_EQ(s.x[1], 1);  // zero-cost item still admitted
}

}  // namespace
}  // namespace lpvs::solver
