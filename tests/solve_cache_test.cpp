// Unit tests for solver::SolveCache as a component: store/lookup
// classification per stream key, the replay rung's previous_assignment,
// solve_with_cache bookkeeping (what it stores, and that a repeated,
// changed or budget-truncated program solves like no cache at all),
// concurrent streams, and repair_assignment's feasibility contract.  The scheduler-level cold/warm
// classification lives in core_scheduler_test; the objective-preservation
// property under random drift lives in solver_differential_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
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

/// Two-row knapsack whose values track the first row's weights (strongly
/// correlated), so the root LP leaves a gap that only branching closes.
BinaryProgram correlated_program(std::uint64_t seed, std::size_t n) {
  BinaryProgram p = knapsack(seed, n);
  common::Rng rng(seed + 1);
  std::vector<double> second(n);
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    second[j] = rng.uniform(1.0, 5.0);
    total += second[j];
    p.objective[j] = p.rows[0][j] + 2.0;
  }
  p.rows.push_back(second);
  p.rhs.push_back(0.5 * total);
  return p;
}

TEST(SolveCacheStore, PreviousAssignmentIsTheLastStoredPerKey) {
  SolveCache cache;
  EXPECT_TRUE(cache.previous_assignment(7).empty());
  cache.store(7, {1, 0, 0});
  cache.store(8, {0, 0, 1});
  cache.store(7, {0, 1, 0});
  EXPECT_EQ(cache.previous_assignment(7), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(cache.previous_assignment(8), (std::vector<int>{0, 0, 1}));
  // Reads are not lookups: the classification counters stay untouched.
  EXPECT_EQ(cache.stats().lookups, 0);
}

TEST(SolveCacheLookupHint, ClassifiesAndCountsEveryLookup) {
  const BinaryProgram p = knapsack(5, 6);
  SolveCache cache;

  EXPECT_TRUE(cache.lookup(1, p).empty());

  const IlpSolution optimum = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(optimum.optimal());
  cache.store(1, optimum.x);

  const std::vector<int> warm = cache.lookup(1, p);
  ASSERT_EQ(warm.size(), p.num_vars());
  EXPECT_TRUE(p.feasible(warm));

  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2);
  EXPECT_EQ(stats.cold_starts, 1);
  EXPECT_EQ(stats.warm_starts, 1);

  cache.clear();
  EXPECT_EQ(cache.stats().lookups, 0);
  EXPECT_TRUE(cache.previous_assignment(1).empty());
}

TEST(SolveCacheLookupHint, WarmIncumbentIsTheLastStoreRepaired) {
  // The warm hint carries nothing but the repaired assignment of the
  // stream's last store, whatever problem shape that store came from.
  const BinaryProgram p = knapsack(8, 5);
  SolveCache cache;
  cache.store(3, {1, 0, 0, 0, 0});
  EXPECT_EQ(cache.lookup(3, p), repair_assignment(p, {1, 0, 0, 0, 0}));

  cache.store(3, {0, 1, 0, 1, 0});
  EXPECT_EQ(cache.lookup(3, p), repair_assignment(p, {0, 1, 0, 1, 0}));
  cache.store(3, {1, 0, 1});
  EXPECT_EQ(cache.lookup(3, p), repair_assignment(p, {1, 0, 1}));
  EXPECT_EQ(cache.stats().warm_starts, 3);
}

TEST(SolveCacheLookupHint, EachKeyIsItsOwnStream) {
  // A store under one key is invisible to every other key: their first
  // lookup is still a cold start.
  const BinaryProgram p = knapsack(6, 5);
  SolveCache cache;
  cache.store(1, {1, 0, 1, 0, 0});
  EXPECT_TRUE(cache.lookup(2, p).empty());
  EXPECT_EQ(cache.lookup(1, p), repair_assignment(p, {1, 0, 1, 0, 0}));
  EXPECT_TRUE(cache.previous_assignment(2).empty());
  EXPECT_EQ(cache.stats().cold_starts, 1);
  EXPECT_EQ(cache.stats().warm_starts, 1);
}

TEST(SolveCacheLookupHint, LookupLeavesTheStoredAssignmentRaw) {
  // Repair happens on a copy: the replay rung still reads exactly what was
  // stored, even after a lookup had to evict picks to fit the problem.
  const BinaryProgram p = knapsack(7, 5);
  const std::vector<int> everything(5, 1);
  ASSERT_FALSE(p.feasible(everything));
  SolveCache cache;
  cache.store(4, everything);
  const std::vector<int> warm = cache.lookup(4, p);
  ASSERT_EQ(warm.size(), p.num_vars());
  EXPECT_TRUE(p.feasible(warm));
  EXPECT_NE(warm, everything);
  EXPECT_EQ(cache.previous_assignment(4), everything);
}

TEST(SolveWithCache, StoresOnlySolvedOrFeasibleResults) {
  // rhs < 0 admits no assignment at all (not even all-zeros): the solve is
  // infeasible, and an infeasible result never replaces the stream's last
  // usable assignment.
  const BranchAndBoundSolver solver;
  BinaryProgram infeasible = knapsack(9, 4);
  infeasible.rhs = {-1.0};
  SolveCache cache;
  const CachedSolve cold = solve_with_cache(solver, infeasible, &cache, 1);
  ASSERT_EQ(cold.solution.status, IlpStatus::kInfeasible);
  EXPECT_TRUE(cache.previous_assignment(1).empty());

  const BinaryProgram p = knapsack(9, 4);
  const CachedSolve solved = solve_with_cache(solver, p, &cache, 1);
  ASSERT_TRUE(solved.solution.optimal());
  EXPECT_EQ(cache.previous_assignment(1), solved.solution.x);
  const CachedSolve again = solve_with_cache(solver, infeasible, &cache, 1);
  EXPECT_EQ(again.solution.status, IlpStatus::kInfeasible);
  EXPECT_EQ(cache.previous_assignment(1), solved.solution.x);
}

TEST(SolveWithCache, NullCacheIsAPlainSolve) {
  const BranchAndBoundSolver solver;
  const BinaryProgram p = knapsack(12, 14);
  const IlpSolution plain = solver.solve(p);
  const CachedSolve cached = solve_with_cache(solver, p, nullptr, 0);
  EXPECT_FALSE(cached.warm_started);
  EXPECT_EQ(cached.solution.status, plain.status);
  EXPECT_EQ(cached.solution.x, plain.x);
  EXPECT_EQ(cached.solution.objective, plain.objective);
  EXPECT_EQ(cached.solution.nodes_explored, plain.nodes_explored);
}

TEST(SolveWithCache, RepeatedProgramSolvesLikeNoCache) {
  // The programs seen to repeat bit for bit between slots are trivial: a
  // one-member cluster's 1-variable program, and a cluster with no
  // eligible member.  Each repeat is solved again, warm-started, and must
  // match a cacheless solve field for field.
  BinaryProgram single;
  single.objective = {3.5};
  single.rows = {{2.0}, {1.0}};
  single.rhs = {4.0, 4.0};

  BinaryProgram none_eligible = knapsack(16, 4);
  none_eligible.rows.push_back(std::vector<double>(4, 1.0));
  none_eligible.rhs.push_back(4.0);
  none_eligible.eligible.assign(4, 0);
  for (double& c : none_eligible.objective) c = 0.0;

  const BranchAndBoundSolver solver;
  for (const BinaryProgram& p : {single, none_eligible}) {
    const IlpSolution plain = solver.solve(p);
    ASSERT_TRUE(plain.optimal());
    SolveCache cache;
    for (int repeat = 0; repeat < 3; ++repeat) {
      const CachedSolve cached = solve_with_cache(solver, p, &cache, 4);
      EXPECT_EQ(cached.warm_started, repeat > 0) << "repeat " << repeat;
      EXPECT_EQ(cached.solution.status, plain.status) << "repeat " << repeat;
      EXPECT_EQ(cached.solution.x, plain.x) << "repeat " << repeat;
      EXPECT_EQ(cached.solution.objective, plain.objective)
          << "repeat " << repeat;
      EXPECT_EQ(cached.solution.nodes_explored, plain.nodes_explored)
          << "repeat " << repeat;
    }
    EXPECT_EQ(cache.stats().cold_starts, 1);
    EXPECT_EQ(cache.stats().warm_starts, 2);
  }
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
  const IlpSolution cold = solver.solve(p);
  ASSERT_TRUE(warm.solution.optimal());
  EXPECT_NEAR(warm.solution.objective, cold.objective, 1e-9);
  EXPECT_LE(warm.incumbent_objective, warm.solution.objective + 1e-9);
  EXPECT_GT(warm.incumbent_objective, 0.0);
  EXPECT_TRUE(p.feasible(warm.solution.x));
}

TEST(SolveWithCache, SeededHintWarmStartsARestoredStream) {
  // A restored server has an empty cache; it seeds each stream with its
  // sessions' last assignment.  The first solve after that is a warm start
  // and lands on the cold optimum.
  const BranchAndBoundSolver solver;
  const BinaryProgram p = knapsack(15, 16);
  const IlpSolution cold = solver.solve(p);
  ASSERT_TRUE(cold.optimal());

  SolveCache cache;
  cache.store(9, cold.x);
  const CachedSolve restored = solve_with_cache(solver, p, &cache, 9);
  EXPECT_TRUE(restored.warm_started);
  ASSERT_TRUE(restored.solution.optimal());
  EXPECT_NEAR(restored.solution.objective, cold.objective, 1e-9);
  EXPECT_NEAR(restored.incumbent_objective, cold.objective, 1e-9);
  EXPECT_EQ(cache.stats().warm_starts, 1);
  EXPECT_EQ(cache.stats().cold_starts, 0);

  // The next identical solve is a warm start at the same objective.
  const CachedSolve next = solve_with_cache(solver, p, &cache, 9);
  EXPECT_TRUE(next.warm_started);
  ASSERT_TRUE(next.solution.optimal());
  EXPECT_NEAR(next.solution.objective, cold.objective, 1e-9);
  EXPECT_EQ(cache.stats().warm_starts, 2);
}

TEST(SolveWithCache, StoresABudgetTruncatedFeasibleResult) {
  // A node-limited solve returns its best incumbent as kFeasible; that is a
  // usable schedule, so it becomes the stream's last assignment.
  BranchAndBoundSolver::Options truncated;
  truncated.max_nodes = 1;
  const BranchAndBoundSolver solver(truncated);
  const BinaryProgram p = correlated_program(21, 20);
  SolveCache cache;
  const CachedSolve cut = solve_with_cache(solver, p, &cache, 2);
  ASSERT_EQ(cut.solution.status, IlpStatus::kFeasible);
  EXPECT_TRUE(p.feasible(cut.solution.x));
  EXPECT_EQ(cache.previous_assignment(2), cut.solution.x);
}

TEST(SolveWithCache, MalformedProgramStoresNothing) {
  // A program whose rhs does not match its rows is malformed: neither a
  // cold nor a warm-started solve of it touches the stream's assignment.
  const BranchAndBoundSolver solver;
  BinaryProgram malformed = knapsack(22, 6);
  malformed.rhs.push_back(1.0);
  SolveCache cache;
  const CachedSolve cold = solve_with_cache(solver, malformed, &cache, 3);
  EXPECT_EQ(cold.solution.status, IlpStatus::kMalformed);
  EXPECT_TRUE(cache.previous_assignment(3).empty());

  const CachedSolve solved =
      solve_with_cache(solver, knapsack(22, 6), &cache, 3);
  ASSERT_TRUE(solved.solution.optimal());
  const CachedSolve warm = solve_with_cache(solver, malformed, &cache, 3);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.solution.status, IlpStatus::kMalformed);
  EXPECT_EQ(cache.previous_assignment(3), solved.solution.x);
}

TEST(SolveWithCache, TruncatedSolveNeverStandsInForAFullBudgetSolve) {
  // The degradation ladder solves under a cut node budget; the stream's
  // next full-budget solve of the same program only starts from that
  // result and still proves the cold full-budget optimum.
  BranchAndBoundSolver::Options cut_options;
  cut_options.max_nodes = 1;
  const BranchAndBoundSolver cut_solver(cut_options);
  const BranchAndBoundSolver full_solver;
  const BinaryProgram p = correlated_program(21, 20);
  const IlpSolution cold = full_solver.solve(p);
  ASSERT_TRUE(cold.optimal());

  SolveCache cache;
  const CachedSolve cut = solve_with_cache(cut_solver, p, &cache, 6);
  ASSERT_EQ(cut.solution.status, IlpStatus::kFeasible);
  const CachedSolve full = solve_with_cache(full_solver, p, &cache, 6);
  EXPECT_TRUE(full.warm_started);
  ASSERT_TRUE(full.solution.optimal());
  EXPECT_NEAR(full.solution.objective, cold.objective, 1e-9);
  EXPECT_GE(full.solution.objective, cut.solution.objective - 1e-9);
  EXPECT_GT(full.solution.nodes_explored, cut.solution.nodes_explored);
}

TEST(SolveWithCache, SingleCoefficientChangeIsSolvedAfresh) {
  // Nothing stored is ever returned as an answer: one changed coefficient
  // in any family that moves the optimum is solved against the new program
  // and lands on its cold optimum.
  const BranchAndBoundSolver solver;
  const BinaryProgram base = knapsack(17, 12);
  const IlpSolution first = solver.solve(base);
  ASSERT_TRUE(first.optimal());
  std::size_t picked = base.num_vars();
  std::size_t skipped = base.num_vars();
  for (std::size_t j = 0; j < base.num_vars(); ++j) {
    if (first.x[j] && picked == base.num_vars()) picked = j;
    if (!first.x[j] && skipped == base.num_vars()) skipped = j;
  }
  ASSERT_LT(picked, base.num_vars());
  ASSERT_LT(skipped, base.num_vars());

  std::vector<BinaryProgram> variants(4, base);
  variants[0].objective[skipped] = 1000.0;
  variants[1].rows[0][picked] = base.rhs[0] + 1.0;
  variants[2].rhs[0] *= 0.5;
  variants[3].eligible.assign(base.num_vars(), 1);
  variants[3].eligible[picked] = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SolveCache cache;
    ASSERT_TRUE(solve_with_cache(solver, base, &cache, 1).solution.optimal());
    const CachedSolve warm = solve_with_cache(solver, variants[v], &cache, 1);
    const IlpSolution cold = solver.solve(variants[v]);
    ASSERT_TRUE(cold.optimal()) << "variant " << v;
    EXPECT_TRUE(warm.warm_started) << "variant " << v;
    ASSERT_TRUE(warm.solution.optimal()) << "variant " << v;
    EXPECT_NEAR(warm.solution.objective, cold.objective, 1e-9)
        << "variant " << v;
    EXPECT_TRUE(variants[v].feasible(warm.solution.x)) << "variant " << v;
    EXPECT_NE(warm.solution.x, first.x) << "variant " << v;
  }
}

TEST(SolveWithCache, ConcurrentSolvesOnDistinctKeysAreDeterministic) {
  // Streams solved on their own threads through one shared cache give,
  // slot for slot, what solving them one at a time gives.
  constexpr std::size_t kStreams = 4;
  constexpr int kSlots = 4;
  const BranchAndBoundSolver solver;
  auto slot_program = [](std::size_t stream, int slot) {
    BinaryProgram p = knapsack(40 + stream, 14);
    p.objective[static_cast<std::size_t>(slot)] += 0.5 * slot;
    p.rhs[0] *= 1.0 - 0.02 * slot;
    return p;
  };
  auto run_stream = [&](SolveCache& cache, std::size_t stream) {
    std::vector<IlpSolution> out;
    for (int slot = 0; slot < kSlots; ++slot) {
      out.push_back(
          solve_with_cache(solver, slot_program(stream, slot), &cache, stream)
              .solution);
    }
    return out;
  };

  SolveCache serial_cache;
  std::vector<std::vector<IlpSolution>> serial;
  for (std::size_t s = 0; s < kStreams; ++s) {
    serial.push_back(run_stream(serial_cache, s));
  }
  SolveCache shared;
  std::vector<std::vector<IlpSolution>> parallel(kStreams);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] { parallel[s] = run_stream(shared, s); });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t s = 0; s < kStreams; ++s) {
    for (int slot = 0; slot < kSlots; ++slot) {
      const IlpSolution& a = serial[s][static_cast<std::size_t>(slot)];
      const IlpSolution& b = parallel[s][static_cast<std::size_t>(slot)];
      EXPECT_EQ(a.status, b.status) << "stream " << s << " slot " << slot;
      EXPECT_EQ(a.x, b.x) << "stream " << s << " slot " << slot;
      EXPECT_EQ(a.objective, b.objective)
          << "stream " << s << " slot " << slot;
      EXPECT_EQ(a.nodes_explored, b.nodes_explored)
          << "stream " << s << " slot " << slot;
    }
  }
  EXPECT_EQ(shared.stats().cold_starts, static_cast<long>(kStreams));
  EXPECT_EQ(shared.stats().warm_starts,
            static_cast<long>(kStreams) * (kSlots - 1));
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

TEST(RepairAssignment, SlackCapacityAllSelectedReturnsTheFilteredStale) {
  // Capacity does not bind and the stale assignment took every item: no
  // usable item is left unselected, so repair only drops what the new
  // program rules out (ineligible, non-positive value, or positive cost
  // against a zero capacity) and adds nothing.
  BinaryProgram p;
  p.objective = {6.0, 5.0, 4.0, 0.0, -1.0, 3.0};
  p.rows = {{2.0, 2.0, 2.0, 2.0, 1.0, 2.0}, {0.0, 0.0, 0.0, 0.0, 0.0, 1.0}};
  p.rhs = {100.0, 0.0};
  p.eligible = {1, 0, 1, 1, 1, 1};
  const std::vector<int> stale = {1, 1, 1, 1, 1, 1};
  EXPECT_EQ(repair_assignment(p, stale), (std::vector<int>{1, 0, 1, 0, 0, 0}));
}

TEST(RepairAssignment, OneUsableUnselectedItemIsStillPacked) {
  // The same slack program with one usable item left out of the stale
  // assignment: re-pack takes it.
  BinaryProgram p;
  p.objective = {6.0, 5.0, 4.0, 0.0, -1.0};
  p.rows = {{2.0, 2.0, 2.0, 2.0, 1.0}};
  p.rhs = {100.0};
  p.eligible = {1, 0, 1, 1, 1};
  const std::vector<int> stale = {1, 1, 0, 1, 1};
  EXPECT_EQ(repair_assignment(p, stale), (std::vector<int>{1, 0, 1, 0, 0}));
  // A stale assignment shorter than the program leaves the tail unselected.
  EXPECT_EQ(repair_assignment(p, {1}), (std::vector<int>{1, 0, 1, 0, 0}));
}

}  // namespace
}  // namespace lpvs::solver
