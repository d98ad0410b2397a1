#include "lpvs/solver/oracle.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace lpvs::solver::oracle {

IlpSolution KnapsackDpSolver::solve(const BinaryProgram& problem) const {
  IlpSolution solution;
  if (problem.rows.size() != 1 || problem.rhs.size() != 1 ||
      problem.rhs[0] < 0.0) {
    solution.status = IlpStatus::kMalformed;
    return solution;
  }
  const std::size_t n = problem.num_vars();
  const double capacity = problem.rhs[0];
  const int resolution = std::max(options_.resolution, 1);

  if (capacity <= 0.0) {
    // Only weightless valuable items can be taken.
    solution.x.assign(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (problem.is_eligible(j) && problem.objective[j] > 0.0 &&
          problem.rows[0][j] <= 0.0) {
        solution.x[j] = 1;
      }
    }
    solution.objective = problem.value(solution.x);
    solution.status = IlpStatus::kOptimal;
    return solution;
  }

  // Discretize: weight buckets rounded *up* so any DP-feasible selection
  // is feasible for the real capacities too.
  std::vector<int> weights(n, 0);
  std::vector<bool> usable(n, false);
  const double bucket =
      capacity > 0.0 ? capacity / static_cast<double>(resolution) : 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (!problem.is_eligible(j) || problem.objective[j] <= 0.0) continue;
    const double w = problem.rows[0][j];
    if (w < 0.0) {
      solution.status = IlpStatus::kMalformed;
      return solution;
    }
    const double scaled = std::ceil(w / bucket - 1e-12);
    if (scaled > static_cast<double>(resolution)) continue;  // never fits
    weights[j] = std::max(0, static_cast<int>(scaled));
    usable[j] = true;
  }

  // Classic 1D value table over capacity buckets, with per-item parent
  // tracking via a bitset-free backward reconstruction: we store, for each
  // item, the table *before* processing it is too memory-hungry; instead
  // keep choice bits packed per item in a rolling fashion.
  //
  // Memory: (n * (resolution+1)) bits packed into 64-bit words.
  const std::size_t columns = static_cast<std::size_t>(resolution) + 1;
  std::vector<double> value(columns, 0.0);
  const std::size_t words_per_item = (columns + 63) / 64;
  std::vector<std::uint64_t> taken(words_per_item * n, 0);

  for (std::size_t j = 0; j < n; ++j) {
    if (!usable[j]) continue;
    const int w = weights[j];
    const double v = problem.objective[j];
    std::uint64_t* bits = &taken[j * words_per_item];
    for (std::size_t c = columns; c-- > static_cast<std::size_t>(w);) {
      const double candidate = value[c - static_cast<std::size_t>(w)] + v;
      if (candidate > value[c]) {
        value[c] = candidate;
        bits[c / 64] |= std::uint64_t{1} << (c % 64);
      }
    }
  }

  // Reconstruct from the best column.
  std::size_t best_column = 0;
  for (std::size_t c = 1; c < columns; ++c) {
    if (value[c] > value[best_column]) best_column = c;
  }
  solution.x.assign(n, 0);
  std::size_t column = best_column;
  for (std::size_t j = n; j-- > 0;) {
    if (!usable[j]) continue;
    const std::uint64_t* bits = &taken[j * words_per_item];
    if (bits[column / 64] >> (column % 64) & 1) {
      solution.x[j] = 1;
      column -= static_cast<std::size_t>(weights[j]);
    }
  }
  solution.objective = problem.value(solution.x);
  solution.status = IlpStatus::kOptimal;
  assert(problem.feasible(solution.x));
  return solution;
}

}  // namespace lpvs::solver::oracle
