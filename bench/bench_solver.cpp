// Micro-benchmarks (google-benchmark): the from-scratch LP / ILP solver
// substrate — the replacement for the paper's CPLEX/Gurobi calls — across
// Phase-1-shaped instance sizes.  BM_BranchAndBound measures the served
// B&B; BM_LpRelaxation measures the dense reference LP (the test oracle).
#include <benchmark/benchmark.h>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/oracle.hpp"

namespace {

lpvs::solver::BinaryProgram phase1_shaped(std::size_t n,
                                          std::uint64_t seed) {
  lpvs::common::Rng rng(seed);
  lpvs::solver::BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(2, std::vector<double>(n));
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(5.0, 60.0);     // mWh saved
    p.rows[0][j] = rng.uniform(0.3, 0.8);        // compute units
    p.rows[1][j] = rng.uniform(50.0, 150.0);     // MB
  }
  p.rhs = {45.0, 32.0 * 1024.0};
  return p;
}

void BM_LpRelaxation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lpvs::solver::BinaryProgram bin = phase1_shaped(n, 1);
  lpvs::solver::LpProblem lp;
  lp.objective = bin.objective;
  lp.rows = bin.rows;
  lp.rhs = bin.rhs;
  lp.upper.assign(n, 1.0);
  const lpvs::solver::oracle::LpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(lp));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LpRelaxation)->RangeMultiplier(2)->Range(64, 4096)->Complexity();

void BM_BranchAndBound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lpvs::solver::BinaryProgram p = phase1_shaped(n, 2);
  const lpvs::solver::BranchAndBoundSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BranchAndBound)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

void BM_GreedyBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lpvs::solver::BinaryProgram p = phase1_shaped(n, 3);
  const lpvs::solver::GreedySolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK(BM_GreedyBaseline)->RangeMultiplier(4)->Range(64, 4096);

}  // namespace

BENCHMARK_MAIN();
