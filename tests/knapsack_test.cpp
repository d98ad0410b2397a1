// Tests for the DP knapsack solver of the test-support library
// (oracle::KnapsackDpSolver): exactness against exhaustive search,
// agreement with the served branch-and-bound, discretization safety (never
// violates the true capacity), and degenerate instances.
#include <gtest/gtest.h>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/oracle.hpp"

namespace lpvs::solver {
namespace {

using oracle::ExhaustiveSolver;
using oracle::KnapsackDpSolver;

BinaryProgram knapsack(std::vector<double> values,
                       std::vector<double> weights, double capacity) {
  BinaryProgram p;
  p.objective = std::move(values);
  p.rows = {std::move(weights)};
  p.rhs = {capacity};
  return p;
}

TEST(KnapsackDp, HandInstance) {
  const BinaryProgram p =
      knapsack({6.0, 10.0, 12.0}, {1.0, 2.0, 3.0}, 5.0);
  const IlpSolution s = KnapsackDpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 22.0);
  EXPECT_EQ(s.x, (std::vector<int>{0, 1, 1}));
}

TEST(KnapsackDp, RejectsMultiRow) {
  BinaryProgram p = knapsack({1.0}, {1.0}, 1.0);
  p.rows.push_back({1.0});
  p.rhs.push_back(1.0);
  EXPECT_EQ(KnapsackDpSolver().solve(p).status, IlpStatus::kMalformed);
}

TEST(KnapsackDp, ZeroCapacityTakesOnlyWeightless) {
  const BinaryProgram p =
      knapsack({5.0, 3.0, 4.0}, {0.0, 1.0, 0.0}, 0.0);
  const IlpSolution s = KnapsackDpSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.x, (std::vector<int>{1, 0, 1}));
  EXPECT_DOUBLE_EQ(s.objective, 9.0);
}

TEST(KnapsackDp, RespectsEligibility) {
  BinaryProgram p = knapsack({10.0, 1.0}, {1.0, 1.0}, 2.0);
  p.eligible = {0, 1};
  const IlpSolution s = KnapsackDpSolver().solve(p);
  EXPECT_EQ(s.x[0], 0);
  EXPECT_EQ(s.x[1], 1);
}

TEST(KnapsackDp, SkipsNegativeValues) {
  const BinaryProgram p = knapsack({-5.0, 7.0}, {1.0, 1.0}, 10.0);
  const IlpSolution s = KnapsackDpSolver().solve(p);
  EXPECT_EQ(s.x[0], 0);
  EXPECT_EQ(s.x[1], 1);
}

TEST(KnapsackDp, OversizedItemNeverTaken) {
  const BinaryProgram p = knapsack({100.0, 1.0}, {11.0, 1.0}, 10.0);
  const IlpSolution s = KnapsackDpSolver().solve(p);
  EXPECT_EQ(s.x[0], 0);
  EXPECT_EQ(s.x[1], 1);
}

TEST(KnapsackDp, ItemExactlyAtCapacityFits) {
  const BinaryProgram p = knapsack({9.0, 1.0}, {10.0, 1.0}, 10.0);
  const IlpSolution s = KnapsackDpSolver().solve(p);
  EXPECT_EQ(s.x[0], 1);
  EXPECT_EQ(s.x[1], 0);
}

TEST(KnapsackDp, NeverViolatesTrueCapacityDespiteRounding) {
  // Coarse resolution: the DP must stay feasible for the *real* weights.
  common::Rng rng(1);
  KnapsackDpSolver::Options coarse;
  coarse.resolution = 37;
  const KnapsackDpSolver solver(coarse);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> values(20);
    std::vector<double> weights(20);
    for (int j = 0; j < 20; ++j) {
      values[static_cast<std::size_t>(j)] = rng.uniform(1.0, 10.0);
      weights[static_cast<std::size_t>(j)] = rng.uniform(0.1, 3.0);
    }
    const BinaryProgram p = knapsack(values, weights, 7.5);
    const IlpSolution s = solver.solve(p);
    EXPECT_TRUE(p.feasible(s.x)) << "trial " << trial;
  }
}

TEST(KnapsackDp, WorstCaseLossFormula) {
  KnapsackDpSolver::Options options;
  options.resolution = 1000;
  const KnapsackDpSolver solver(options);
  EXPECT_DOUBLE_EQ(solver.worst_case_capacity_loss(100), 0.1);
}

/// Exactness: DP equals exhaustive on random single-row instances.
class KnapsackExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackExactness, MatchesExhaustive) {
  common::Rng rng(GetParam());
  const std::size_t n = 4 + static_cast<std::size_t>(rng.uniform_int(0, 10));
  std::vector<double> values(n);
  std::vector<double> weights(n);
  for (std::size_t j = 0; j < n; ++j) {
    values[j] = rng.uniform(0.5, 10.0);
    weights[j] = rng.uniform(0.2, 4.0);
  }
  double total = 0.0;
  for (double w : weights) total += w;
  const BinaryProgram p =
      knapsack(values, weights, rng.uniform(0.2, 0.8) * total);
  const IlpSolution dp = KnapsackDpSolver().solve(p);
  const IlpSolution exact = ExhaustiveSolver().solve(p);
  ASSERT_TRUE(dp.optimal());
  // High default resolution: the rounding loss is far below this slack.
  EXPECT_NEAR(dp.objective, exact.objective, 0.01 * exact.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackExactness,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(KnapsackDp, AgreesWithBranchAndBoundAtScale) {
  common::Rng rng(9);
  const std::size_t n = 200;
  std::vector<double> values(n);
  std::vector<double> weights(n);
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    values[j] = rng.uniform(1.0, 50.0);
    weights[j] = rng.uniform(0.3, 1.0);
    total += weights[j];
  }
  const BinaryProgram p = knapsack(values, weights, 0.4 * total);
  const IlpSolution dp = KnapsackDpSolver().solve(p);
  BranchAndBoundSolver::Options opt;
  opt.max_nodes = 500;
  opt.relative_gap = 1e-4;
  const IlpSolution bnb = BranchAndBoundSolver(opt).solve(p);
  const LpSolution bound = oracle::LpSolver().solve(
      LpProblem{p.objective, p.rows, p.rhs, std::vector<double>(n, 1.0)});
  ASSERT_TRUE(dp.optimal());
  ASSERT_TRUE(bound.optimal());
  EXPECT_TRUE(p.feasible(bnb.x));
  // The DP rounds weights up, so its answer is feasible but only a lower
  // bound on the optimum; the B&B may beat it (on this instance it does,
  // by 0.23).  The B&B stops within its relative gap of any feasible
  // point, and nothing feasible exceeds the LP relaxation.
  EXPECT_GE(bnb.objective, dp.objective * (1.0 - opt.relative_gap) - 1e-6);
  EXPECT_LE(bnb.objective, bound.objective + 1e-6);
  EXPECT_NEAR(bnb.objective, dp.objective, 1e-3 * dp.objective);
}

}  // namespace
}  // namespace lpvs::solver
