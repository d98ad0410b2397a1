// Unit tests for solver::SolveCache as a component: store/lookup
// classification, exact-hit replay, the replay rung's previous_assignment,
// solve_with_cache bookkeeping and repair_assignment's feasibility
// contract.  The scheduler-level
// cold/exact/warm classification lives in core_scheduler_test; the
// objective-preservation property under random drift lives in
// solver_differential_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::solver {
namespace {

/// One-row knapsack with `n` items, weights and values drawn from `seed`,
/// capacity at half the total weight.
BinaryProgram knapsack(std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed);
  BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(1, std::vector<double>(n));
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(1.0, 10.0);
    p.rows[0][j] = rng.uniform(1.0, 5.0);
    total += p.rows[0][j];
  }
  p.rhs = {0.5 * total};
  return p;
}

IlpSolution solved(std::vector<int> x, double objective,
                   IlpStatus status = IlpStatus::kOptimal) {
  IlpSolution s;
  s.status = status;
  s.x = std::move(x);
  s.objective = objective;
  return s;
}

TEST(SolveCacheStore, KeepsOnlySolvedOrFeasibleSolutions) {
  SolveCache cache;
  cache.store(1, 11, solved({1, 0}, 3.0, IlpStatus::kMalformed));
  cache.store(2, 22, solved({1, 0}, 3.0, IlpStatus::kInfeasible));
  EXPECT_TRUE(cache.previous_assignment(1).empty());
  EXPECT_TRUE(cache.previous_assignment(2).empty());

  cache.store(3, 33, solved({0, 1}, 2.0, IlpStatus::kFeasible));
  cache.store(4, 44, solved({1, 1}, 5.0));
  EXPECT_EQ(cache.previous_assignment(3), (std::vector<int>{0, 1}));
  EXPECT_EQ(cache.previous_assignment(4), (std::vector<int>{1, 1}));
}

TEST(SolveCacheStore, PreviousAssignmentIsTheLastStoredPerKey) {
  SolveCache cache;
  EXPECT_TRUE(cache.previous_assignment(7).empty());
  cache.store(7, 1, solved({1, 0, 0}, 1.0));
  cache.store(8, 2, solved({0, 0, 1}, 1.0));
  cache.store(7, 3, solved({0, 1, 0}, 2.0));
  EXPECT_EQ(cache.previous_assignment(7), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(cache.previous_assignment(8), (std::vector<int>{0, 0, 1}));
  // Reads are not lookups: the classification counters stay untouched.
  EXPECT_EQ(cache.stats().lookups, 0);
}

TEST(SolveCacheLookupHint, ClassifiesAndCountsEveryLookup) {
  const BinaryProgram p = knapsack(5, 6);
  const std::uint64_t fp = fingerprint(p);
  SolveCache cache;

  const SolveCache::Hint cold = cache.lookup(1, p, fp);
  EXPECT_FALSE(cold.exact_hit);
  EXPECT_TRUE(cold.incumbent.empty());

  const IlpSolution optimum = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(optimum.optimal());
  cache.store(1, fp, optimum);

  const SolveCache::Hint exact = cache.lookup(1, p, fp);
  ASSERT_TRUE(exact.exact_hit);
  EXPECT_EQ(exact.solution.x, optimum.x);
  EXPECT_EQ(exact.solution.objective, optimum.objective);

  const SolveCache::Hint warm = cache.lookup(1, p, fp + 1);
  EXPECT_FALSE(warm.exact_hit);
  ASSERT_EQ(warm.incumbent.size(), p.num_vars());
  EXPECT_TRUE(p.feasible(warm.incumbent));

  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3);
  EXPECT_EQ(stats.cold_starts, 1);
  EXPECT_EQ(stats.exact_hits, 1);
  EXPECT_EQ(stats.warm_starts, 1);

  cache.clear();
  EXPECT_EQ(cache.stats().lookups, 0);
  EXPECT_TRUE(cache.previous_assignment(1).empty());
}

TEST(SolveCacheLookupHint, MatchingFingerprintOfAnotherSizeIsNotAnExactHit) {
  // Exact hits also match on variable count, so a stored assignment is
  // never replayed verbatim onto a problem of a different shape.
  const BinaryProgram small = knapsack(6, 4);
  const BinaryProgram large = knapsack(6, 7);
  SolveCache cache;
  cache.store(1, 99, solved({1, 0, 1, 0}, 4.0));
  const SolveCache::Hint hint = cache.lookup(1, large, 99);
  EXPECT_FALSE(hint.exact_hit);
  ASSERT_EQ(hint.incumbent.size(), large.num_vars());
  EXPECT_TRUE(large.feasible(hint.incumbent));
  EXPECT_EQ(cache.stats().warm_starts, 1);
  EXPECT_TRUE(cache.lookup(1, small, 99).exact_hit);
}

TEST(SolveCacheLookupHint, WarmIncumbentIsTheLastUsableStoreRepaired) {
  // The warm hint carries nothing but the repaired assignment of the
  // stream's last usable store: a later store replaces it, and a store the
  // cache ignores (no solved status) leaves it in place.
  const BinaryProgram p = knapsack(8, 5);
  SolveCache cache;
  cache.store(3, 10, solved({1, 0, 0, 0, 0}, 1.0));
  EXPECT_EQ(cache.lookup(3, p, 11).incumbent,
            repair_assignment(p, {1, 0, 0, 0, 0}));

  cache.store(3, 12, solved({0, 1, 0, 1, 0}, 1.0));
  cache.store(3, 14, solved({1, 1, 1, 1, 1}, 9.0, IlpStatus::kInfeasible));
  const SolveCache::Hint warm = cache.lookup(3, p, 13);
  EXPECT_FALSE(warm.exact_hit);
  EXPECT_TRUE(warm.solution.x.empty());
  EXPECT_EQ(warm.incumbent, repair_assignment(p, {0, 1, 0, 1, 0}));
  EXPECT_EQ(cache.previous_assignment(3), (std::vector<int>{0, 1, 0, 1, 0}));
}

TEST(SolveWithCache, NullCacheIsAPlainSolve) {
  const BranchAndBoundSolver solver;
  const BinaryProgram p = knapsack(12, 14);
  const IlpSolution plain = solver.solve(p);
  const CachedSolve cached = solve_with_cache(solver, p, nullptr, 0);
  EXPECT_FALSE(cached.exact_hit);
  EXPECT_FALSE(cached.warm_started);
  EXPECT_EQ(cached.solution.status, plain.status);
  EXPECT_EQ(cached.solution.x, plain.x);
  EXPECT_EQ(cached.solution.objective, plain.objective);
  EXPECT_EQ(cached.solution.nodes_explored, plain.nodes_explored);
}

TEST(SolveWithCache, ExactHitReplaysWithoutSearch) {
  const BranchAndBoundSolver solver;
  const BinaryProgram p = knapsack(13, 14);
  SolveCache cache;
  const CachedSolve first = solve_with_cache(solver, p, &cache, 2);
  ASSERT_TRUE(first.solution.optimal());
  EXPECT_GT(first.solution.nodes_explored, 0);
  const CachedSolve again = solve_with_cache(solver, p, &cache, 2);
  ASSERT_TRUE(again.exact_hit);
  EXPECT_FALSE(again.warm_started);
  EXPECT_EQ(again.solution.x, first.solution.x);
  EXPECT_EQ(again.solution.objective, first.solution.objective);
  EXPECT_EQ(again.solution.nodes_explored, 0);
  EXPECT_EQ(again.solution.lp_pivots, 0);
  // A different key is a different stream: cold, not a hit.
  const CachedSolve other = solve_with_cache(solver, p, &cache, 3);
  EXPECT_FALSE(other.exact_hit);
  EXPECT_FALSE(other.warm_started);
  EXPECT_EQ(cache.stats().cold_starts, 2);
}

TEST(SolveWithCache, WarmStartReportsItsIncumbentAndKeepsTheObjective) {
  const BranchAndBoundSolver solver;
  BinaryProgram p = knapsack(14, 16);
  SolveCache cache;
  ASSERT_TRUE(solve_with_cache(solver, p, &cache, 5).solution.optimal());

  p.objective[3] += 0.75;  // next slot's drift
  p.rhs[0] *= 0.95;
  const CachedSolve warm = solve_with_cache(solver, p, &cache, 5);
  ASSERT_TRUE(warm.warm_started);
  EXPECT_FALSE(warm.exact_hit);
  const IlpSolution cold = solver.solve(p);
  ASSERT_TRUE(warm.solution.optimal());
  EXPECT_NEAR(warm.solution.objective, cold.objective, 1e-9);
  EXPECT_LE(warm.incumbent_objective, warm.solution.objective + 1e-9);
  EXPECT_GT(warm.incumbent_objective, 0.0);
  EXPECT_TRUE(p.feasible(warm.solution.x));
}

TEST(SolveWithCache, SeededHintWarmStartsARestoredStream) {
  // A restored server has an empty cache; it seeds each stream with its
  // sessions' last assignment under a fingerprint no problem carries.  The
  // first solve after that is a warm start, never an exact hit, and lands
  // on the cold optimum.
  const BranchAndBoundSolver solver;
  const BinaryProgram p = knapsack(15, 16);
  const IlpSolution cold = solver.solve(p);
  ASSERT_TRUE(cold.optimal());

  constexpr std::uint64_t kSeedFingerprint = 0x5EEDull;
  ASSERT_NE(fingerprint(p), kSeedFingerprint);
  SolveCache cache;
  cache.store(9, kSeedFingerprint, solved(cold.x, 0.0, IlpStatus::kFeasible));
  const CachedSolve restored = solve_with_cache(solver, p, &cache, 9);
  EXPECT_TRUE(restored.warm_started);
  EXPECT_FALSE(restored.exact_hit);
  ASSERT_TRUE(restored.solution.optimal());
  EXPECT_NEAR(restored.solution.objective, cold.objective, 1e-9);
  EXPECT_NEAR(restored.incumbent_objective, cold.objective, 1e-9);
  EXPECT_EQ(cache.stats().warm_starts, 1);
  EXPECT_EQ(cache.stats().cold_starts, 0);

  // The solve replaced the seed, so the unchanged problem now replays.
  EXPECT_TRUE(solve_with_cache(solver, p, &cache, 9).exact_hit);
}

TEST(RepairAssignment, DropsIneligiblePicksAndEvictsUntilFeasible) {
  BinaryProgram p;
  p.objective = {6.0, 5.0, 4.0, 3.0, -1.0};
  p.rows = {{2.0, 2.0, 2.0, 2.0, 1.0}};
  p.rhs = {5.0};
  p.eligible = {1, 0, 1, 1, 1};
  const std::vector<int> stale = {1, 1, 1, 1, 1};
  const std::vector<int> repaired = repair_assignment(p, stale);
  ASSERT_EQ(repaired.size(), p.num_vars());
  EXPECT_TRUE(p.feasible(repaired));
  EXPECT_EQ(repaired[1], 0);  // ineligible
  EXPECT_EQ(repaired[4], 0);  // negative value
  // Two of the three eligible 2-unit items fit; the densest two survive.
  EXPECT_EQ(repaired[0], 1);
  EXPECT_EQ(repaired[2], 1);
  EXPECT_EQ(repaired[3], 0);
}

TEST(RepairAssignment, AnyStaleLengthYieldsAFeasibleFullSizedSelection) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const BinaryProgram p = knapsack(200 + seed, 9);
    for (std::size_t stale_size : {0u, 4u, 9u, 15u}) {
      const std::vector<int> stale(stale_size, 1);
      const std::vector<int> repaired = repair_assignment(p, stale);
      ASSERT_EQ(repaired.size(), p.num_vars())
          << "seed " << seed << " stale " << stale_size;
      EXPECT_TRUE(p.feasible(repaired))
          << "seed " << seed << " stale " << stale_size;
      EXPECT_GT(p.value(repaired), 0.0)
          << "seed " << seed << " stale " << stale_size;
    }
  }
}

TEST(RepairAssignment, FeasibleStaleSelectionNeverLosesValue) {
  // Nothing is evicted from a selection that already fits, and the
  // re-pack and swap polish only ever add value — so an optimal stale
  // assignment comes back exactly as good.
  const BranchAndBoundSolver solver;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const BinaryProgram p = knapsack(300 + seed, 11);
    const IlpSolution optimum = solver.solve(p);
    ASSERT_TRUE(optimum.optimal()) << "seed " << seed;
    const std::vector<int> repaired = repair_assignment(p, optimum.x);
    EXPECT_TRUE(p.feasible(repaired)) << "seed " << seed;
    EXPECT_NEAR(p.value(repaired), optimum.objective, 1e-9) << "seed " << seed;

    std::vector<int> partial = optimum.x;
    for (std::size_t j = 0; j < partial.size(); j += 2) partial[j] = 0;
    EXPECT_GE(p.value(repair_assignment(p, partial)), p.value(partial) - 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace lpvs::solver
