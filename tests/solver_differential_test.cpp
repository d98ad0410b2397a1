// Differential/property harness for the solve pipeline.
//
// Ground truth is oracle::ExhaustiveSolver (brute force over all 2^n
// selections), and oracle::DenseBranchAndBound at sizes beyond it;
// the properties are the invariants the warm-start pipeline leans on:
//
//   1. B&B at relative_gap = 0 returns the exhaustive optimum on random
//      instances — including degenerate ones (negative rhs, all-ineligible,
//      zero objectives).
//   2. A warm-started solve returns the *bit-for-bit* same objective as a
//      cold solve of the same problem: the incumbent may only prune.
//   3. repair_assignment always emits a feasible, correctly sized
//      selection no matter how stale or corrupt its input.
//   4. The scheduler with a solve cache attached admits the same objective
//      as without one (the cache is transparent end-to-end).
//
// Seeds are fixed; every failure message carries the trial seed so an
// instance can be replayed in isolation (see docs/solver.md).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/oracle.hpp"
#include "lpvs/solver/presolve.hpp"
#include "lpvs/solver/revised_lp.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::solver {
namespace {

using oracle::ExhaustiveSolver;

constexpr int kTrials = 500;

/// Random instance with <= 12 vars and 2 capacity rows, spanning loose,
/// binding, and infeasible regimes plus eligibility masks and worthless
/// items — the shapes phase1_program emits, and the ones it never should.
BinaryProgram random_program(common::Rng& rng) {
  BinaryProgram problem;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  problem.objective.resize(n);
  for (auto& c : problem.objective) {
    // ~10% of items are worthless or harmful (gamma posterior gone bad).
    c = rng.uniform() < 0.1 ? rng.uniform(-5.0, 0.0) : rng.uniform(0.1, 50.0);
  }
  problem.rows.assign(2, std::vector<double>(n));
  for (auto& row : problem.rows) {
    for (auto& a : row) {
      // Occasional zero-cost items make row-degenerate instances.
      a = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 10.0);
    }
  }
  problem.rhs.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    const double roll = rng.uniform();
    double total = 0.0;
    for (double a : problem.rows[i]) total += a;
    if (roll < 0.05) {
      problem.rhs[i] = rng.uniform(-5.0, -0.1);  // infeasible row
    } else if (roll < 0.15) {
      problem.rhs[i] = total + 1.0;  // never binds
    } else {
      problem.rhs[i] = total * rng.uniform(0.2, 0.8);  // binding
    }
  }
  if (rng.uniform() < 0.3) {
    problem.eligible.resize(n);
    for (auto& e : problem.eligible) {
      e = rng.uniform() < 0.7 ? std::uint8_t{1} : std::uint8_t{0};
    }
  }
  return problem;
}

/// Nudges a program the way one slot nudges the next: coefficients drift a
/// few percent, capacities wobble, the odd item churns.
BinaryProgram perturb(const BinaryProgram& base, common::Rng& rng) {
  BinaryProgram next = base;
  const std::size_t n = next.num_vars();
  for (auto& c : next.objective) c *= rng.uniform(0.95, 1.05);
  for (auto& row : next.rows) {
    for (auto& a : row) a *= rng.uniform(0.97, 1.03);
  }
  for (auto& b : next.rhs) b *= rng.uniform(0.95, 1.05);
  if (n > 1 && rng.uniform() < 0.5) {
    const auto victim =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    next.objective[victim] = rng.uniform(0.1, 50.0);
    for (auto& row : next.rows) row[victim] = rng.uniform(0.1, 10.0);
  }
  return next;
}

BranchAndBoundSolver::Options exact_options() {
  BranchAndBoundSolver::Options options;
  options.max_nodes = 500'000;
  options.relative_gap = 0.0;
  return options;
}

BranchAndBoundSolver exact_solver() {
  return BranchAndBoundSolver(exact_options());
}

/// Which row of a Phase-1-shaped program is not a plain binding row.
enum class OddRow { kNone, kLoose, kZeroRhs };

/// A Phase-1-shaped program (objective gamma * slot energy, compute and
/// storage rows) with what the revised engine's root reduced-cost fixing
/// must survive: ~20% ineligible devices, ~10% non-positive entries,
/// optionally quantized costs (ties), and optionally a storage row loose
/// enough for presolve to drop, or one with rhs 0 that only zero-cost
/// devices fit.
BinaryProgram phase1_shaped(common::Rng& rng, std::size_t n, bool quantized,
                            OddRow odd) {
  BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(2, std::vector<double>(n));
  p.eligible.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.bernoulli(0.1)
                         ? rng.uniform(-5.0, 0.0)
                         : rng.uniform(0.13, 0.49) * rng.uniform(100.0, 1500.0);
    if (quantized) {
      p.rows[0][j] = 0.2 * static_cast<double>(rng.uniform_int(1, 6));
      p.rows[1][j] = 20.0 * static_cast<double>(rng.uniform_int(1, 10));
    } else {
      p.rows[0][j] = rng.uniform(0.2, 1.2);
      p.rows[1][j] = rng.uniform(20.0, 200.0);
    }
    if (odd == OddRow::kZeroRhs && rng.bernoulli(0.5)) p.rows[1][j] = 0.0;
    p.eligible[j] = rng.bernoulli(0.8) ? 1 : 0;
  }
  p.rhs.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    double total = 0.0;
    for (double a : p.rows[i]) total += a;
    p.rhs[i] = total * rng.uniform(0.2, 0.45);
  }
  if (odd == OddRow::kLoose) {
    double total = 0.0;
    for (double a : p.rows[1]) total += a;
    p.rhs[1] = total + 1.0;
  } else if (odd == OddRow::kZeroRhs) {
    p.rhs[1] = 0.0;
  }
  return p;
}

TEST(SolverDifferential, BranchAndBoundMatchesExhaustiveOptimum) {
  const BranchAndBoundSolver bnb = exact_solver();
  const ExhaustiveSolver exhaustive;
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(1000 + static_cast<std::uint64_t>(trial));
    const BinaryProgram problem = random_program(rng);
    const IlpSolution truth = exhaustive.solve(problem);
    const IlpSolution got = bnb.solve(problem);
    ASSERT_EQ(got.status, truth.status) << "trial seed " << 1000 + trial;
    if (truth.status != IlpStatus::kOptimal) continue;
    // Ties may resolve to different assignments; the value may not differ.
    ASSERT_NEAR(got.objective, truth.objective, 1e-9)
        << "trial seed " << 1000 + trial;
    ASSERT_TRUE(problem.feasible(got.x)) << "trial seed " << 1000 + trial;
    ASSERT_NEAR(problem.value(got.x), got.objective, 1e-9)
        << "trial seed " << 1000 + trial;
  }
}

// The revised engine fixes variables by reduced cost at the root and
// searches only the rest.  At gap 0 the fixing prunes only what cannot
// beat the incumbent, so exact solves must still find the optimum.
TEST(RootFixing, ExactSolvesMatchExhaustiveOptimum) {
  const BranchAndBoundSolver bnb = exact_solver();
  const ExhaustiveSolver exhaustive;
  long fixed = 0;
  for (int trial = 0; trial < 240; ++trial) {
    common::Rng rng(7000 + static_cast<std::uint64_t>(trial));
    const auto n = static_cast<std::size_t>(rng.uniform_int(6, 16));
    const OddRow odd = trial % 4 == 2   ? OddRow::kLoose
                       : trial % 4 == 3 ? OddRow::kZeroRhs
                                        : OddRow::kNone;
    const BinaryProgram problem = phase1_shaped(rng, n, trial % 2 == 1, odd);
    const IlpSolution truth = exhaustive.solve(problem);
    const IlpSolution got = bnb.solve(problem);
    ASSERT_EQ(got.status, IlpStatus::kOptimal) << "trial seed " << 7000 + trial;
    ASSERT_NEAR(got.objective, truth.objective, 1e-9)
        << "trial seed " << 7000 + trial;
    ASSERT_TRUE(problem.feasible(got.x)) << "trial seed " << 7000 + trial;
    fixed += got.root_fixed;
  }
  EXPECT_GT(fixed, 0);  // the corpus exercises the fixing
}

// Rebuilds the root the revised engine solves (presolve, then a cold
// relaxation) and checks the fixing rule against it: every variable whose
// reduced cost rules it out even against the optimum keeps its bound in
// the returned point, and the root fixes at least what the greedy seed
// alone would have let it fix.
TEST(RootFixing, ReturnedPointKeepsEveryFixing) {
  const BranchAndBoundSolver bnb = exact_solver();
  const double tol = BranchAndBoundSolver::Options{}.tolerance;
  long checked = 0;
  long branched = 0;
  for (int trial = 0; trial < 60; ++trial) {
    common::Rng rng(7200 + static_cast<std::uint64_t>(trial));
    const BinaryProgram problem =
        phase1_shaped(rng, 40, /*quantized=*/false, OddRow::kNone);
    const IlpSolution got = bnb.solve(problem);
    ASSERT_EQ(got.status, IlpStatus::kOptimal) << "trial seed " << 7200 + trial;

    const PresolveResult pre = presolve_binary_program(problem, tol);
    const BinaryProgram& red = pre.reduced;
    RevisedLpSolver engine;
    ASSERT_TRUE(engine.load(LpProblem{red.objective, red.rows, red.rhs,
                                      std::vector<double>(red.num_vars(), 1.0)}));
    const RevisedLpSolver::Result root = engine.solve_in_place();
    ASSERT_TRUE(root.optimal());
    const double greedy = GreedySolver().solve(red).objective;
    long fixable_by_greedy = 0;
    bool fractional = false;
    for (std::size_t j = 0; j < red.num_vars(); ++j) {
      const std::uint8_t state = engine.var_states()[j];
      if (state == 2) {
        fractional |= std::fabs(engine.x()[j] - std::round(engine.x()[j])) > tol;
        continue;
      }
      const double d = engine.reduced_cost(j);
      const double moved = state == 1 ? root.objective - d : root.objective + d;
      if (moved <= got.objective + tol) {
        EXPECT_EQ(got.x[pre.var_map[j]], state == 1 ? 1 : 0)
            << "trial seed " << 7200 + trial << " var " << pre.var_map[j];
        ++checked;
      }
      fixable_by_greedy += moved <= greedy + tol;
    }
    if (!fractional) {
      EXPECT_EQ(got.root_fixed, 0) << "trial seed " << 7200 + trial;
    } else if (root.objective > got.objective + tol) {
      // The root branches whatever its incumbent, and that incumbent is at
      // least the greedy seed.
      EXPECT_GE(got.root_fixed, fixable_by_greedy)
          << "trial seed " << 7200 + trial;
      ++branched;
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(branched, 0);
}

class RootFixingAtScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RootFixingAtScale, ExactSolvesMatchDenseOracle) {
  const std::size_t n = GetParam();
  const BranchAndBoundSolver revised = exact_solver();
  const oracle::DenseBranchAndBound dense(exact_options());
  long fixed = 0;
  for (int trial = 0; trial < 4; ++trial) {
    common::Rng rng(7500 + n + static_cast<std::uint64_t>(trial));
    const BinaryProgram problem =
        phase1_shaped(rng, n, trial % 2 == 1,
                      trial == 3 ? OddRow::kLoose : OddRow::kNone);
    const IlpSolution got = revised.solve(problem);
    const IlpSolution truth = dense.solve(problem);
    ASSERT_EQ(truth.status, IlpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(got.status, IlpStatus::kOptimal) << "trial " << trial;
    ASSERT_NEAR(got.objective, truth.objective, 1e-9) << "trial " << trial;
    ASSERT_TRUE(problem.feasible(got.x)) << "trial " << trial;
    fixed += got.root_fixed;
  }
  EXPECT_GT(fixed, 0);
}

INSTANTIATE_TEST_SUITE_P(Phase1Sizes, RootFixingAtScale,
                         ::testing::Values(std::size_t{40}, std::size_t{120}));

TEST(SolverDifferential, WarmStartedObjectiveEqualsColdBitForBit) {
  const BranchAndBoundSolver bnb = exact_solver();
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(2000 + static_cast<std::uint64_t>(trial));
    const BinaryProgram previous = random_program(rng);
    const IlpSolution stale = bnb.solve(previous);
    if (stale.status != IlpStatus::kOptimal) continue;

    const BinaryProgram problem = perturb(previous, rng);
    const IlpSolution cold = bnb.solve(problem);
    const std::vector<int> incumbent = repair_assignment(problem, stale.x);
    const IlpSolution warm = bnb.solve(problem, incumbent);

    ASSERT_EQ(warm.status, cold.status) << "trial seed " << 2000 + trial;
    if (cold.status == IlpStatus::kInfeasible) continue;
    // Bit-for-bit: at gap 0 the incumbent changes pruning, never the value.
    ASSERT_EQ(warm.objective, cold.objective)
        << "trial seed " << 2000 + trial;
  }
}

TEST(SolverDifferential, RepairAssignmentAlwaysFeasibleAndSized) {
  for (int trial = 0; trial < kTrials; ++trial) {
    common::Rng rng(3000 + static_cast<std::uint64_t>(trial));
    const BinaryProgram problem = random_program(rng);
    bool infeasible_row = false;
    for (double b : problem.rhs) infeasible_row |= b < 0.0;
    if (infeasible_row) continue;  // no feasible selection exists at all

    const std::size_t n = problem.num_vars();
    // Stale inputs from plausible (previous optimum) to hostile (all-ones,
    // wrong length, random bits).
    std::vector<std::vector<int>> stales;
    stales.push_back(std::vector<int>(n, 1));
    stales.push_back({});
    stales.push_back(std::vector<int>(n + 7, 1));
    std::vector<int> noise(n);
    for (auto& v : noise) v = rng.uniform() < 0.5 ? 1 : 0;
    stales.push_back(std::move(noise));
    for (const auto& stale : stales) {
      const std::vector<int> repaired = repair_assignment(problem, stale);
      ASSERT_EQ(repaired.size(), n) << "trial seed " << 3000 + trial;
      ASSERT_TRUE(problem.feasible(repaired))
          << "trial seed " << 3000 + trial;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(repaired[j] == 0 || problem.is_eligible(j))
            << "trial seed " << 3000 + trial;
      }
    }
  }
}

TEST(SolverDifferential, SchedulerWithCacheMatchesWithout) {
  const survey::AnxietyModel anxiety = survey::AnxietyModel::reference();
  const core::RunContext plain(anxiety);
  // Exact Phase-1 (no relative gap): with a positive gap, warm and cold
  // may legitimately stop at different points inside the gap band, so
  // bit-for-bit equality is only a theorem at gap 0.
  core::LpvsScheduler::Options options;
  options.ilp.max_nodes = 500'000;
  options.ilp.relative_gap = 0.0;
  const core::LpvsScheduler scheduler(options);
  for (int trial = 0; trial < 40; ++trial) {
    common::Rng rng(4000 + static_cast<std::uint64_t>(trial));
    core::SlotProblem problem;
    problem.lambda = 2000.0;
    const int devices = static_cast<int>(rng.uniform_int(4, 12));
    problem.compute_capacity = 0.45 * 0.55 * devices;
    problem.storage_capacity = 0.60 * 100.0 * devices;
    for (int d = 0; d < devices; ++d) {
      core::DeviceSlotInput device;
      device.id = common::DeviceId{static_cast<std::uint32_t>(d)};
      device.power_rates_mw.resize(30);
      device.chunk_durations_s.assign(30, 10.0);
      for (auto& p : device.power_rates_mw) p = rng.uniform(400.0, 1100.0);
      device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
      device.initial_energy_mwh =
          device.battery_capacity_mwh * rng.uniform(0.08, 0.95);
      device.gamma = rng.uniform(0.13, 0.49);
      device.compute_cost = rng.uniform(0.3, 0.8);
      device.storage_cost = rng.uniform(50.0, 150.0);
      problem.devices.push_back(std::move(device));
    }

    SolveCache cache;
    // Poison the cache stream with a different problem first, so the real
    // solve below warm-starts from a genuinely stale assignment.
    core::SlotProblem other = problem;
    for (auto& device : other.devices) {
      device.initial_energy_mwh *= 0.9;
      device.gamma = std::min(0.6, device.gamma + 0.02);
    }
    const core::RunContext cached = plain.with_solve_cache(&cache, 7);
    scheduler.schedule(other, cached);

    const core::Schedule without = scheduler.schedule(problem, plain);
    const core::Schedule with = scheduler.schedule(problem, cached);
    ASSERT_EQ(with.objective, without.objective)
        << "trial seed " << 4000 + trial;
    ASSERT_EQ(with.energy_spent_mwh, without.energy_spent_mwh)
        << "trial seed " << 4000 + trial;
  }
}

}  // namespace
}  // namespace lpvs::solver
