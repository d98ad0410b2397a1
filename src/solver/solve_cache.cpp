#include "lpvs/solver/solve_cache.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace lpvs::solver {
namespace {

/// Density of item j under `problem` — the same value/normalized-cost
/// ordering GreedySolver uses, so repair and cold greedy agree on what a
/// "good" item is.  Negative means "never pick".
double item_density(const BinaryProgram& problem, std::size_t j) {
  if (!problem.is_eligible(j) || problem.objective[j] <= 0.0) return -1.0;
  double normalized_cost = 1e-12;
  for (std::size_t i = 0; i < problem.rows.size(); ++i) {
    if (problem.rhs[i] > 0.0) {
      normalized_cost += problem.rows[i][j] / problem.rhs[i];
    } else if (problem.rows[i][j] > 0.0) {
      return -1.0;  // positive cost against a zero/negative capacity
    }
  }
  return problem.objective[j] / normalized_cost;
}

}  // namespace

std::vector<int> repair_assignment(const BinaryProgram& problem,
                                   const std::vector<int>& stale) {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.rows.size();
  std::vector<int> x(n, 0);

  std::vector<double> density(n);
  for (std::size_t j = 0; j < n; ++j) density[j] = item_density(problem, j);

  // Keep the stale picks that still make sense under the new problem.
  std::vector<double> used(m, 0.0);
  for (std::size_t j = 0; j < n && j < stale.size(); ++j) {
    if (stale[j] == 0 || density[j] < 0.0) continue;
    x[j] = 1;
    for (std::size_t i = 0; i < m; ++i) used[i] += problem.rows[i][j];
  }

  // Evict the worst-density survivors until every row fits.  Coefficients
  // are non-negative, so each eviction only ever reduces usage.
  auto overloaded = [&] {
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i] > problem.rhs[i] + 1e-9) return true;
    }
    return false;
  };
  while (overloaded()) {
    std::ptrdiff_t worst = -1;
    for (std::size_t j = 0; j < n; ++j) {
      if (!x[j]) continue;
      if (worst < 0 || density[j] < density[static_cast<std::size_t>(worst)]) {
        worst = static_cast<std::ptrdiff_t>(j);
      }
    }
    if (worst < 0) break;  // nothing selected yet a row overflows: rhs < 0
    const auto w = static_cast<std::size_t>(worst);
    x[w] = 0;
    for (std::size_t i = 0; i < m; ++i) used[i] -= problem.rows[i][w];
  }

  // Re-pack and swap polish below only ever take an unselected item that
  // is not "never pick".  With none (capacity slack and the stale
  // assignment took every usable item), they would change nothing.
  bool any_candidate = false;
  for (std::size_t j = 0; j < n && !any_candidate; ++j) {
    any_candidate = !x[j] && !(density[j] < 0.0);
  }
  if (!any_candidate) return x;

  // Re-pack leftover capacity with the best unselected items (the slot
  // deltas that freed or added room).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return density[a] > density[b];
  });
  for (std::size_t j : order) {
    if (x[j] || density[j] < 0.0) continue;
    bool fits = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i] + problem.rows[i][j] > problem.rhs[i] + 1e-9) {
        fits = false;
        break;
      }
    }
    if (!fits) continue;
    x[j] = 1;
    for (std::size_t i = 0; i < m; ++i) used[i] += problem.rows[i][j];
  }

  // Swap polish: first-improvement 1-for-1 swaps close most of the gap the
  // slot deltas opened in the marginal band near the capacity boundary.
  // Incumbent quality is what makes warm starts prune — an incumbent a few
  // tenths of a percent off the optimum cuts the B&B tree by a third or
  // more, while one a few percent off loses to the root LP rounding and
  // saves nothing.  The work budget (feasibility probes, ~O(n) per pass)
  // keeps repair linear-ish for fleet-sized problems.
  long budget = 64 * static_cast<long>(n) + 256;
  for (int pass = 0; pass < 4 && budget > 0; ++pass) {
    bool improved = false;
    for (std::size_t j : order) {
      if (budget <= 0) break;
      if (x[j] || density[j] < 0.0) continue;
      // Scanning selected items by ascending objective means the first
      // feasible swap found is also the largest-gain one.
      std::ptrdiff_t take_out = -1;
      double best_gain = 1e-9;
      for (std::size_t k = 0; k < n && budget > 0; ++k) {
        if (!x[k]) continue;
        const double gain = problem.objective[j] - problem.objective[k];
        if (gain <= best_gain) continue;
        --budget;
        bool ok = true;
        for (std::size_t i = 0; i < m; ++i) {
          if (used[i] - problem.rows[i][k] + problem.rows[i][j] >
              problem.rhs[i] + 1e-9) {
            ok = false;
            break;
          }
        }
        if (ok) {
          best_gain = gain;
          take_out = static_cast<std::ptrdiff_t>(k);
        }
      }
      if (take_out >= 0) {
        const auto k = static_cast<std::size_t>(take_out);
        x[k] = 0;
        x[j] = 1;
        for (std::size_t i = 0; i < m; ++i) {
          used[i] += problem.rows[i][j] - problem.rows[i][k];
        }
        improved = true;
      }
    }
    if (!improved) break;
  }
  return x;
}

std::vector<int> SolveCache::lookup(std::uint64_t key,
                                    const BinaryProgram& problem) {
  std::vector<int> previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.cold_starts;
      return {};
    }
    previous = it->second;
    ++stats_.warm_starts;
  }
  // Repair outside the lock: it reads only the caller's problem and the
  // copied predecessor.
  return repair_assignment(problem, previous);
}

void SolveCache::store(std::uint64_t key, std::vector<int> assignment) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[key] = std::move(assignment);
}

std::vector<int> SolveCache::previous_assignment(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return it->second;
}

SolveCacheStats SolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SolveCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_ = SolveCacheStats{};
}

CachedSolve solve_with_cache(const BranchAndBoundSolver& solver,
                             const BinaryProgram& problem, SolveCache* cache,
                             std::uint64_t key) {
  CachedSolve result;
  if (cache == nullptr) {
    result.solution = solver.solve(problem);
    return result;
  }
  const std::vector<int> incumbent = cache->lookup(key, problem);
  if (!incumbent.empty()) {
    result.warm_started = true;
    result.incumbent_objective = problem.value(incumbent);
    result.solution = solver.solve(problem, incumbent);
  } else {
    result.solution = solver.solve(problem);
  }
  if (result.solution.status == IlpStatus::kOptimal ||
      result.solution.status == IlpStatus::kFeasible) {
    cache->store(key, result.solution.x);
  }
  return result;
}

}  // namespace lpvs::solver
