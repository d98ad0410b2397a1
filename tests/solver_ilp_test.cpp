// Tests for the 0/1 branch-and-bound solver: exactness against exhaustive
// enumeration (oracle::ExhaustiveSolver), agreement with the dense
// reference B&B, feasibility of everything any solver returns, and the
// greedy/exhaustive baselines themselves.
#include <gtest/gtest.h>

#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/oracle.hpp"
#include "lpvs/solver/presolve.hpp"

namespace lpvs::solver {
namespace {

using oracle::ExhaustiveSolver;

BinaryProgram random_program(common::Rng& rng, std::size_t n,
                             std::size_t m) {
  BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(m, std::vector<double>(n));
  p.rhs.resize(m);
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(0.0, 10.0);
  }
  for (std::size_t i = 0; i < m; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      p.rows[i][j] = rng.uniform(0.1, 4.0);
      sum += p.rows[i][j];
    }
    p.rhs[i] = rng.uniform(0.2, 0.8) * sum;  // genuinely binding
  }
  return p;
}

TEST(BinaryProgram, FeasibilityChecksRowsAndEligibility) {
  BinaryProgram p;
  p.objective = {1.0, 1.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {1.0};
  p.eligible = {1, 0};
  EXPECT_TRUE(p.feasible({1, 0}));
  EXPECT_FALSE(p.feasible({0, 1}));  // ineligible
  EXPECT_FALSE(p.feasible({1, 1}));  // over capacity (and ineligible)
}

TEST(BinaryProgram, ValueSumsSelected) {
  BinaryProgram p;
  p.objective = {2.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(p.value({1, 0, 1}), 7.0);
  EXPECT_DOUBLE_EQ(p.value({0, 0, 0}), 0.0);
}

TEST(Exhaustive, TinyKnapsackByHand) {
  // values 6,10,12 weights 1,2,3 cap 5 -> take {10,12} = 22.
  BinaryProgram p;
  p.objective = {6.0, 10.0, 12.0};
  p.rows = {{1.0, 2.0, 3.0}};
  p.rhs = {5.0};
  const IlpSolution s = ExhaustiveSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 22.0);
  EXPECT_EQ(s.x, (std::vector<int>{0, 1, 1}));
}

TEST(Exhaustive, RefusesHugeInstances) {
  BinaryProgram p;
  p.objective.assign(40, 1.0);
  EXPECT_EQ(ExhaustiveSolver().solve(p).status, IlpStatus::kMalformed);
}

TEST(Greedy, ReturnsFeasible) {
  common::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const BinaryProgram p = random_program(rng, 12, 2);
    const IlpSolution s = GreedySolver().solve(p);
    EXPECT_TRUE(p.feasible(s.x));
    EXPECT_DOUBLE_EQ(s.objective, p.value(s.x));
  }
}

TEST(Greedy, NeverBeatsExhaustive) {
  common::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const BinaryProgram p = random_program(rng, 10, 2);
    const double greedy = GreedySolver().solve(p).objective;
    const double exact = ExhaustiveSolver().solve(p).objective;
    EXPECT_LE(greedy, exact + 1e-9);
  }
}

TEST(Greedy, SkipsIneligibleAndNegative) {
  BinaryProgram p;
  p.objective = {5.0, -1.0, 7.0};
  p.rows = {{1.0, 1.0, 1.0}};
  p.rhs = {3.0};
  p.eligible = {0, 1, 1};
  const IlpSolution s = GreedySolver().solve(p);
  EXPECT_EQ(s.x[0], 0);  // ineligible despite positive value
  EXPECT_EQ(s.x[1], 0);  // negative value never helps
  EXPECT_EQ(s.x[2], 1);
}

TEST(BranchAndBound, MatchesHandKnapsack) {
  BinaryProgram p;
  p.objective = {6.0, 10.0, 12.0};
  p.rows = {{1.0, 2.0, 3.0}};
  p.rhs = {5.0};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 22.0);
}

TEST(BranchAndBound, RespectsEligibility) {
  BinaryProgram p;
  p.objective = {100.0, 1.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {2.0};
  p.eligible = {0, 1};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.x[0], 0);
  EXPECT_EQ(s.x[1], 1);
  EXPECT_DOUBLE_EQ(s.objective, 1.0);
}

TEST(BranchAndBound, ZeroCapacitySelectsNothing) {
  BinaryProgram p;
  p.objective = {3.0, 4.0};
  p.rows = {{1.0, 1.0}};
  p.rhs = {0.0};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(BranchAndBound, LooseCapacityTakesEverything) {
  BinaryProgram p;
  p.objective.assign(30, 1.0);
  p.rows.assign(1, std::vector<double>(30, 1.0));
  p.rhs = {1000.0};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 30.0);
}

TEST(BranchAndBound, EmptyProblem) {
  BinaryProgram p;
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  EXPECT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(BranchAndBound, TightCorrelatedInstance) {
  // Equal densities force real branching.
  BinaryProgram p;
  p.objective = {4.0, 4.0, 4.0, 4.0, 4.0};
  p.rows = {{2.0, 2.0, 2.0, 2.0, 2.0}};
  p.rhs = {7.0};  // fits exactly 3
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 12.0);
}

TEST(BranchAndBound, NodeLimitDegradesGracefully) {
  common::Rng rng(6);
  const BinaryProgram p = random_program(rng, 18, 2);
  BranchAndBoundSolver::Options options;
  options.max_nodes = 1;  // only the warm start survives
  const IlpSolution s = BranchAndBoundSolver(options).solve(p);
  EXPECT_EQ(s.status, IlpStatus::kFeasible);
  EXPECT_TRUE(p.feasible(s.x));
}

/// The core exactness property: B&B equals exhaustive enumeration on random
/// instances across sizes, constraint counts, and seeds.
struct ExactnessCase {
  std::size_t n;
  std::size_t m;
  std::uint64_t seed;
};

class BnbExactness : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(BnbExactness, MatchesExhaustive) {
  const ExactnessCase& c = GetParam();
  common::Rng rng(c.seed);
  BinaryProgram p = random_program(rng, c.n, c.m);
  // Randomly knock out some eligibility.
  p.eligible.assign(c.n, 1);
  for (std::size_t j = 0; j < c.n; ++j) {
    if (rng.bernoulli(0.2)) p.eligible[j] = 0;
  }
  const IlpSolution exact = ExhaustiveSolver().solve(p);
  const IlpSolution bnb = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(exact.optimal());
  ASSERT_TRUE(bnb.optimal());
  EXPECT_NEAR(bnb.objective, exact.objective, 1e-6)
      << "n=" << c.n << " m=" << c.m << " seed=" << c.seed;
  EXPECT_TRUE(p.feasible(bnb.x));
}

std::vector<ExactnessCase> exactness_cases() {
  std::vector<ExactnessCase> cases;
  for (std::size_t n : {4, 8, 12, 15}) {
    for (std::size_t m : {1, 2, 3}) {
      for (std::uint64_t seed : {101u, 202u, 303u, 404u}) {
        cases.push_back({n, m, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BnbExactness,
                         ::testing::ValuesIn(exactness_cases()));

TEST(BranchAndBound, ScalesToHundredsOfVariables) {
  // The dense oracle needs tens of seconds here.
  common::Rng rng(7);
  const BinaryProgram p = random_program(rng, 300, 2);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  EXPECT_TRUE(s.optimal());
  EXPECT_TRUE(p.feasible(s.x));
  EXPECT_GE(s.objective, GreedySolver().solve(p).objective - 1e-9);
}

TEST(BranchAndBound, RevisedMatchesDenseOracleAtSixtyVariables) {
  common::Rng rng(7);
  const BinaryProgram p = random_program(rng, 60, 2);
  const IlpSolution revised = BranchAndBoundSolver().solve(p);
  const IlpSolution dense = oracle::DenseBranchAndBound().solve(p);
  ASSERT_TRUE(revised.optimal());
  ASSERT_TRUE(dense.optimal());
  EXPECT_TRUE(p.feasible(revised.x));
  EXPECT_NEAR(revised.objective, dense.objective, 1e-9);
}

TEST(BranchAndBound, CountsLpPivotsOverExploredNodes) {
  common::Rng rng(11);
  const BinaryProgram p = random_program(rng, 40, 2);

  // One node of the dense oracle: the count is exactly the root
  // relaxation's pivots.
  BranchAndBoundSolver::Options root_only;
  root_only.max_nodes = 1;
  const IlpSolution root = oracle::DenseBranchAndBound(root_only).solve(p);
  LpProblem relaxation{p.objective, p.rows, p.rhs,
                       std::vector<double>(p.num_vars(), 1.0)};
  EXPECT_EQ(root.lp_pivots, oracle::LpSolver().solve(relaxation).iterations);
  EXPECT_GT(root.lp_pivots, 0);

  const IlpSolution dense = oracle::DenseBranchAndBound().solve(p);
  EXPECT_GT(dense.nodes_explored, 1);
  EXPECT_GT(dense.lp_pivots, root.lp_pivots);

  // The served engine sums its pivots over the explored nodes as well.
  // Its cold root starts from the slack basis, which is primal feasible
  // here, so every root pivot is a primal-phase one and must be counted.
  const IlpSolution served_root = BranchAndBoundSolver(root_only).solve(p);
  EXPECT_EQ(served_root.nodes_explored, 1);
  EXPECT_GT(served_root.lp_pivots, 0);
  const IlpSolution served = BranchAndBoundSolver().solve(p);
  EXPECT_GT(served.nodes_explored, 1);
  EXPECT_GT(served.lp_pivots, served_root.lp_pivots);
  EXPECT_GT(served.lp_pivots, root.lp_pivots);
}

TEST(DenseOracle, OptimalIncumbentKeepsObjectiveAndNeverAddsNodes) {
  common::Rng rng(23);
  const BinaryProgram p = random_program(rng, 40, 2);
  const oracle::DenseBranchAndBound dense;
  const IlpSolution cold = dense.solve(p);
  ASSERT_TRUE(cold.optimal());

  // The incumbent only tightens pruning: the search order is fixed, so a
  // better starting incumbent can prune more nodes but never fewer.
  const IlpSolution warm = dense.solve(p, cold.x);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(p.feasible(warm.x));
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_LE(warm.nodes_explored, cold.nodes_explored);
}

TEST(DenseOracle, UnusableIncumbentFallsBackToTheColdSolve) {
  common::Rng rng(29);
  const BinaryProgram p = random_program(rng, 30, 2);
  const oracle::DenseBranchAndBound dense;
  const IlpSolution cold = dense.solve(p);

  // Every rhs is at most 0.8 of its row sum, so taking everything is
  // infeasible; a wrong-sized vector is ignored as well.  Either way the
  // greedy seed is used and the search is the cold one, node for node.
  for (const std::vector<int>& unusable :
       {std::vector<int>(p.num_vars(), 1), std::vector<int>{1, 0}}) {
    const IlpSolution warm = dense.solve(p, unusable);
    EXPECT_EQ(warm.status, cold.status);
    EXPECT_EQ(warm.x, cold.x);
    EXPECT_EQ(warm.objective, cold.objective);
    EXPECT_EQ(warm.nodes_explored, cold.nodes_explored);
    EXPECT_EQ(warm.lp_pivots, cold.lp_pivots);
  }
}

TEST(RootFixing, IntegralRootIsOneNode) {
  // The relaxation takes 6 and 5 exactly (weights 2 + 2 = capacity 4).
  BinaryProgram p;
  p.objective = {6.0, 5.0, 4.0};
  p.rows = {{2.0, 2.0, 2.0}};
  p.rhs = {4.0};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 11.0);
  EXPECT_EQ(s.nodes_explored, 1);
  EXPECT_EQ(s.root_fixed, 0);  // the root does not branch, so fixes nothing
}

TEST(RootFixing, FullyFixedRootIsOneNode) {
  // Root LP: the three 10s plus half of the 5 (bound 32.5); rounding finds
  // 30.  The dual price of the row is 5, so each 10 would cost 5 to drop
  // and the 2 would cost 3 to take: every nonbasic variable is fixed,
  // and the half-taken 5 no longer fits the 0.5 of the row that is left.
  BinaryProgram p;
  p.objective = {10.0, 10.0, 10.0, 5.0, 2.0};
  p.rows = {{1.0, 1.0, 1.0, 1.0, 1.0}};
  p.rhs = {3.5};
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 30.0);
  EXPECT_EQ(s.x, (std::vector<int>{1, 1, 1, 0, 0}));
  EXPECT_EQ(s.nodes_explored, 1);
  EXPECT_EQ(s.root_fixed, 5);
  EXPECT_DOUBLE_EQ(s.objective, ExhaustiveSolver().solve(p).objective);
}

TEST(RootFixing, FixVariablesCompactsIntoTheResidualProgram) {
  BinaryProgram p;
  p.objective = {4.0, 3.0, 2.0, 1.0, 5.0};
  p.rows = {{1.0, 2.0, 3.0, 0.5, 1.0}, {2.0, 1.0, 0.0, 1.0, 4.5}};
  p.rhs = {5.0, 6.0};
  // x0 fixed to one leaves rows {4, 4}; x4 alone now overflows row 1.
  const PresolveResult fix = fix_variables(p, {1, 0, -1, -1, -1}, 1e-7);
  EXPECT_EQ(fix.fixed, (std::vector<signed char>{1, 0, -1, -1, 0}));
  EXPECT_DOUBLE_EQ(fix.fixed_objective, 4.0);
  EXPECT_EQ(fix.var_map, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(fix.row_map, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(fix.reduced.objective, (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(fix.reduced.rows,
            (std::vector<std::vector<double>>{{3.0, 0.5}, {0.0, 1.0}}));
  EXPECT_EQ(fix.reduced.rhs, (std::vector<double>{4.0, 4.0}));
  EXPECT_EQ(expand_solution(fix, {1, 0}), (std::vector<int>{1, 0, 1, 0, 0}));

  // Fixings to one that overflow a row together are dropped, not trusted;
  // the rest of the reduction still runs against the untouched rhs.
  p.rhs = {2.5, 6.0};
  const PresolveResult overflow = fix_variables(p, {1, 1, -1, -1, -1}, 1e-7);
  EXPECT_EQ(overflow.fixed, (std::vector<signed char>{-1, -1, 0, -1, -1}));
  EXPECT_DOUBLE_EQ(overflow.fixed_objective, 0.0);
  EXPECT_EQ(overflow.reduced.rhs, p.rhs);
}

// The decision-2 certificate (docs/paper_mapping.md): the served budget
// (200 nodes, gap 1e-4) lands within 1% of the dense reference LP's
// relaxation value, which bounds every 0/1 point from above.
class ServedBudgetAtScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServedBudgetAtScale, WithinOnePercentOfDenseLpBound) {
  const std::size_t n = GetParam();
  common::Rng rng(6 + n);
  BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(2, std::vector<double>(n));
  double compute = 0.0;
  double storage = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(1.0, 10.0);
    p.rows[0][j] = rng.uniform(0.2, 1.0);
    p.rows[1][j] = rng.uniform(10.0, 100.0);
    compute += p.rows[0][j];
    storage += p.rows[1][j];
  }
  p.rhs = {0.4 * compute, 0.35 * storage};
  const IlpSolution served =
      BranchAndBoundSolver(core::scheduler_ilp_defaults()).solve(p);
  const LpSolution bound = oracle::LpSolver().solve(LpProblem{
      p.objective, p.rows, p.rhs, std::vector<double>(n, 1.0)});
  ASSERT_TRUE(bound.optimal());
  ASSERT_NE(served.status, IlpStatus::kInfeasible);
  EXPECT_TRUE(p.feasible(served.x));
  EXPECT_LE(served.objective, bound.objective + 1e-6);
  EXPECT_GE(served.objective, 0.99 * bound.objective);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ServedBudgetAtScale,
                         ::testing::Values(std::size_t{200}, std::size_t{400}));

TEST(Infeasibility, NegativeRhsIsInfeasibleFromEverySolver) {
  // Regression: ExhaustiveSolver used to pre-seed the all-zeros incumbent
  // without checking it against the rows, so a negative capacity (which no
  // 0/1 point can satisfy — coefficients are non-negative) came back as an
  // "optimal" all-zeros solution instead of kInfeasible.
  BinaryProgram p;
  p.objective = {4.0, 7.0};
  p.rows = {{1.0, 2.0}, {0.5, 0.5}};
  p.rhs = {3.0, -0.25};
  EXPECT_EQ(ExhaustiveSolver().solve(p).status, IlpStatus::kInfeasible);
  EXPECT_EQ(GreedySolver().solve(p).status, IlpStatus::kInfeasible);
  EXPECT_EQ(BranchAndBoundSolver().solve(p).status, IlpStatus::kInfeasible);
  // A warm-started solve must agree, whatever incumbent it is handed.
  EXPECT_EQ(BranchAndBoundSolver().solve(p, {0, 0}).status,
            IlpStatus::kInfeasible);
}

TEST(Infeasibility, ZeroRhsStillAdmitsZeroCostItems) {
  // The boundary the fix must not overshoot: rhs == 0 keeps all-zeros
  // feasible, and items with no cost on the exhausted row remain takeable.
  BinaryProgram p;
  p.objective = {4.0, 7.0};
  p.rows = {{0.0, 2.0}};
  p.rhs = {0.0};
  const IlpSolution exhaustive = ExhaustiveSolver().solve(p);
  ASSERT_EQ(exhaustive.status, IlpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(exhaustive.objective, 4.0);
  const IlpSolution bnb = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(bnb.status, IlpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(bnb.objective, 4.0);
}

TEST(IlpStatusNames, ToString) {
  EXPECT_EQ(to_string(IlpStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(IlpStatus::kFeasible), "feasible");
  EXPECT_EQ(to_string(IlpStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(IlpStatus::kMalformed), "malformed");
}

}  // namespace
}  // namespace lpvs::solver
