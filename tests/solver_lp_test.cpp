// Tests for the dense bounded-variable simplex (oracle::LpSolver, the
// reference LP the tests and benches certify the served solver with):
// hand-checked instances, structural edge cases, and randomized
// feasibility/optimality properties.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/oracle.hpp"

namespace lpvs::solver {
namespace {

using oracle::LpSolver;
using oracle::well_formed;

TEST(LpSolver, SingleVariableHitsUpperBound) {
  // max 3x, x <= 0.7 via bound; no rows.
  LpProblem p;
  p.objective = {3.0};
  p.upper = {0.7};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.1, 1e-9);
  EXPECT_NEAR(s.x[0], 0.7, 1e-9);
}

TEST(LpSolver, SingleVariableRowBinds) {
  // max 3x, 2x <= 1, x <= 1 -> x = 0.5.
  LpProblem p;
  p.objective = {3.0};
  p.rows = {{2.0}};
  p.rhs = {1.0};
  p.upper = {1.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 0.5, 1e-9);
  EXPECT_NEAR(s.objective, 1.5, 1e-9);
}

TEST(LpSolver, NegativeCostVariableStaysAtZero) {
  LpProblem p;
  p.objective = {-1.0, 2.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {10.0};
  p.upper = {5.0, 5.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 0.0, 1e-9);
  EXPECT_NEAR(s.x[1], 5.0, 1e-9);
  EXPECT_NEAR(s.objective, 10.0, 1e-9);
}

TEST(LpSolver, ClassicTwoVariable) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (upper bounds loose).
  // Optimum (2, 6) -> 36.
  LpProblem p;
  p.objective = {3.0, 5.0};
  p.rows = {{1.0, 0.0}, {0.0, 2.0}, {3.0, 2.0}};
  p.rhs = {4.0, 12.0, 18.0};
  p.upper = {100.0, 100.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0, 1e-8);
}

TEST(LpSolver, KnapsackRelaxationFractionalSplit) {
  // max 10a + 6b, a + b <= 1.5, binaries relaxed to [0,1]:
  // a = 1, b = 0.5 -> 13.
  LpProblem p;
  p.objective = {10.0, 6.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {1.5};
  p.upper = {1.0, 1.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 13.0, 1e-9);
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.5, 1e-9);
}

TEST(LpSolver, UnboundedDetected) {
  LpProblem p;
  p.objective = {1.0};
  p.upper = {std::numeric_limits<double>::infinity()};
  // An infinite upper bound is well-formed (slack variables use the same
  // representation internally); with no row limiting x the LP is unbounded
  // and the ratio test must say so rather than loop.
  EXPECT_TRUE(well_formed(p));
  const LpSolution s = LpSolver().solve(p);
  EXPECT_EQ(s.status, LpStatus::kUnbounded);
}

TEST(LpSolver, MalformedNegativeRhsRejected) {
  LpProblem p;
  p.objective = {1.0};
  p.rows = {{1.0}};
  p.rhs = {-1.0};
  p.upper = {1.0};
  EXPECT_FALSE(well_formed(p));
  EXPECT_EQ(LpSolver().solve(p).status, LpStatus::kMalformed);
}

TEST(LpSolver, MalformedShapeMismatchRejected) {
  LpProblem p;
  p.objective = {1.0, 2.0};
  p.rows = {{1.0}};  // wrong width
  p.rhs = {1.0};
  p.upper = {1.0, 1.0};
  EXPECT_EQ(LpSolver().solve(p).status, LpStatus::kMalformed);
}

TEST(LpSolver, ZeroCapacityForcesAllZero) {
  LpProblem p;
  p.objective = {5.0, 7.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {0.0};
  p.upper = {1.0, 1.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(LpSolver, ZeroObjectiveOptimalImmediately) {
  LpProblem p;
  p.objective = {0.0, 0.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {1.0};
  p.upper = {1.0, 1.0};
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 0.0, 1e-12);
}

TEST(LpSolver, AllVariablesFitLooseConstraint) {
  const std::size_t n = 50;
  LpProblem p;
  p.objective.assign(n, 1.0);
  p.rows.assign(1, std::vector<double>(n, 1.0));
  p.rhs = {1000.0};
  p.upper.assign(n, 1.0);
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, static_cast<double>(n), 1e-7);
}

TEST(LpSolver, DegenerateTiesStillTerminate) {
  // Many identical columns competing for a tight row.
  const std::size_t n = 30;
  LpProblem p;
  p.objective.assign(n, 1.0);
  p.rows.assign(1, std::vector<double>(n, 1.0));
  p.rhs = {10.0};
  p.upper.assign(n, 1.0);
  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 10.0, 1e-7);
}

/// Randomized properties: the simplex solution must be feasible and at
/// least as good as a crowd of random feasible points.
class LpRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpRandomized, FeasibleAndDominatesRandomPoints) {
  common::Rng rng(GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 18));
  const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  LpProblem p;
  p.objective.resize(n);
  p.upper.assign(n, 1.0);
  p.rows.assign(m, std::vector<double>(n));
  p.rhs.resize(m);
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(0.0, 10.0);
  }
  for (std::size_t i = 0; i < m; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      p.rows[i][j] = rng.uniform(0.0, 5.0);
      row_sum += p.rows[i][j];
    }
    p.rhs[i] = rng.uniform(0.1, 1.0) * row_sum;
  }

  const LpSolution s = LpSolver().solve(p);
  ASSERT_TRUE(s.optimal());

  // Feasibility of the returned point.
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_GE(s.x[j], -1e-7);
    EXPECT_LE(s.x[j], 1.0 + 1e-7);
  }
  for (std::size_t i = 0; i < m; ++i) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < n; ++j) lhs += p.rows[i][j] * s.x[j];
    EXPECT_LE(lhs, p.rhs[i] + 1e-6);
  }

  // Optimality against random feasible points (scaled to feasibility).
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(n);
    for (std::size_t j = 0; j < n; ++j) x[j] = rng.uniform(0.0, 1.0);
    double worst_ratio = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) lhs += p.rows[i][j] * x[j];
      if (lhs > p.rhs[i]) worst_ratio = std::min(worst_ratio, p.rhs[i] / lhs);
    }
    double value = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      value += p.objective[j] * x[j] * worst_ratio;
    }
    EXPECT_LE(value, s.objective + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomized,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(LpSolver, StatusToString) {
  EXPECT_EQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(LpStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
  EXPECT_EQ(to_string(LpStatus::kMalformed), "malformed");
  EXPECT_EQ(to_string(LpStatus::kInfeasible), "infeasible");
}

}  // namespace
}  // namespace lpvs::solver
