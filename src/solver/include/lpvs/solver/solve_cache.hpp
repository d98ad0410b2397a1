// Warm-started solve cache for consecutive-slot binary programs.
//
// The edge scheduler re-solves a Phase-1 ILP every slot for every virtual
// cluster, and adjacent slots differ only by small deltas (battery drain,
// gamma posterior updates, a handful of arrivals/departures).  The cache
// keeps each stream's last usable assignment and nothing else.  A lookup
// greedy-repairs it against the new problem (drop what no longer fits or
// is no longer eligible, re-pack leftover capacity by density) and the
// result is seeded into BranchAndBoundSolver as the incumbent, replacing
// the cold greedy seed.  A near-optimal incumbent prunes the search from
// node one; the returned objective is unchanged (differential-tested).
// This incumbent is the solver's only warm start: no LP basis carries over
// from one solve to the next.  A program that repeats bit for bit is
// solved again: in practice only trivial ones repeat, and presolve settles
// them without a search.
//
// The cache lives in memory only.  Server checkpoints do not carry it; a
// restored federation server re-seeds each stream from its sessions' last
// assignments before its first solve (fleet::SessionState).
//
// Streams are identified by a caller-chosen 64-bit key (one per virtual
// cluster / problem stream).  The cache is thread-safe; concurrent solves
// for *distinct* keys are deterministic.  Two in-flight solves sharing a
// key race on the stored entry — correctness survives (a stale or fresher
// incumbent only changes pruning), determinism does not, so callers that
// solve clusters concurrently must give each cluster its own key.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lpvs/solver/ilp.hpp"

namespace lpvs::solver {

/// Greedy-repairs a stale 0/1 assignment against a (slightly different)
/// problem: forces out ineligible and non-positive-value picks, evicts the
/// lowest-density picks until every row fits, re-packs leftover capacity
/// by density, then polishes with budgeted 1-for-1 swap improvement (the
/// marginal band near the capacity boundary is where the slot deltas bite,
/// and incumbent quality there is what makes warm starts prune).  Always
/// returns a feasible selection when one exists (all-zeros), sized
/// problem.num_vars().
std::vector<int> repair_assignment(const BinaryProgram& problem,
                                   const std::vector<int>& stale);

/// Running totals of what lookups found; retrievable for tests/benches
/// (the schedulers additionally export them per-solve to the obs registry).
struct SolveCacheStats {
  long lookups = 0;
  long warm_starts = 0;   ///< predecessor repaired into an incumbent
  long cold_starts = 0;   ///< no predecessor for the stream key
};

/// Per-stream memory of the last usable assignment.
class SolveCache {
 public:
  SolveCache() = default;
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Looks up stream `key` for `problem`: the stream's last stored
  /// assignment repaired against `problem` (the warm incumbent), or empty
  /// when the stream has none (a cold start).
  std::vector<int> lookup(std::uint64_t key, const BinaryProgram& problem);

  /// Records `assignment` as stream `key`'s last usable assignment.
  /// Callers store only what may seed a later solve: a solved or feasible
  /// result, a degraded rung's feasible selection, a restored session hint.
  void store(std::uint64_t key, std::vector<int> assignment);

  /// The raw assignment last stored for stream `key` (empty when none).
  /// The degradation ladder's replay rung reuses it verbatim when there is
  /// no time to solve at all; callers must re-check feasibility against the
  /// current problem themselves.
  std::vector<int> previous_assignment(std::uint64_t key) const;

  SolveCacheStats stats() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<int>> entries_;
  SolveCacheStats stats_;
};

/// One warm-started solve through the cache, with the bookkeeping callers
/// need for metrics.  With `cache == nullptr` this is exactly
/// `solver.solve(problem)`.
struct CachedSolve {
  IlpSolution solution;
  bool warm_started = false;
  /// Objective of the repaired incumbent (valid when warm_started); the
  /// incumbent-quality gap is solution.objective - incumbent_objective.
  double incumbent_objective = 0.0;
};

/// Solves `problem` warm-started from stream `key`'s last assignment, then
/// stores the result for the stream's next solve when it is solved or
/// feasible.
CachedSolve solve_with_cache(const BranchAndBoundSolver& solver,
                             const BinaryProgram& problem, SolveCache* cache,
                             std::uint64_t key);

}  // namespace lpvs::solver
