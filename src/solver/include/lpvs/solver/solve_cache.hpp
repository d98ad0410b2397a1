// Warm-started solve cache for consecutive-slot binary programs.
//
// The edge scheduler re-solves a Phase-1 ILP every slot for every virtual
// cluster, and adjacent slots differ only by small deltas (battery drain,
// gamma posterior updates, a handful of arrivals/departures).  This module
// exploits that repetition two ways:
//
//   - Exact hit: each problem is fingerprinted (a 64-bit hash over its
//     coefficient bit patterns).  When a stream re-submits a bit-identical
//     problem the stored solution is returned verbatim, skipping the solve
//     entirely — sound because BranchAndBoundSolver is deterministic.
//   - Warm start: otherwise the stream's previous assignment is
//     greedy-repaired against the new problem (drop what no longer fits or
//     is no longer eligible, re-pack leftover capacity by density) and
//     seeded into BranchAndBoundSolver as the incumbent, replacing the
//     cold greedy seed.  A near-optimal incumbent prunes the search from
//     node one; the returned objective is unchanged (differential-tested).
//     This incumbent is the solver's only warm start: no LP basis carries
//     over from one solve to the next.
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

/// Order-sensitive 64-bit FNV-1a over the problem's shape and coefficient
/// bit patterns.  Equal fingerprints are treated as equal problems (the
/// 2^-64 collision risk is accepted; a collision can only replay a stored
/// assignment for the wrong problem, and exact hits additionally match on
/// variable count before reuse).
std::uint64_t fingerprint(const BinaryProgram& problem);

/// Fingerprint of the solve budget a solution was produced under (node
/// limit, tolerance, relative gap, LP iteration cap).  The degradation
/// ladder truncates budgets under deadline pressure; mixing the budget into
/// the cache fingerprint keeps a truncated solve from ever replaying as an
/// exact hit for a full-budget solve of the same problem, and vice versa.
std::uint64_t budget_fingerprint(const BranchAndBoundSolver::Options& options);

/// Order-sensitive fingerprint combination.  By convention a zero
/// `budget_fp` means "untagged" and leaves `problem_fp` unchanged, so
/// callers that never vary the budget keep their stored entries valid.
std::uint64_t combine_fingerprints(std::uint64_t problem_fp,
                                   std::uint64_t budget_fp);

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
  long exact_hits = 0;    ///< fingerprint matched; solve skipped
  long warm_starts = 0;   ///< predecessor repaired into an incumbent
  long cold_starts = 0;   ///< no predecessor for the stream key
};

/// Per-stream memory of the last solved problem and its assignment.
class SolveCache {
 public:
  /// What a lookup produced for the caller to act on.
  struct Hint {
    bool exact_hit = false;      ///< `solution` can be reused verbatim
    IlpSolution solution;        ///< valid when exact_hit
    std::vector<int> incumbent;  ///< repaired warm start; empty = cold
  };

  SolveCache() = default;
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Looks up stream `key` for `problem` (whose fingerprint the caller
  /// already computed, so stores can reuse it without re-hashing).
  Hint lookup(std::uint64_t key, const BinaryProgram& problem,
              std::uint64_t problem_fingerprint);

  /// Records the solved assignment for stream `key`; ignored unless the
  /// solution is usable as a future incumbent (right size, solved status).
  void store(std::uint64_t key, std::uint64_t problem_fingerprint,
             const IlpSolution& solution);

  /// The raw assignment last stored for stream `key` (empty when none).
  /// The degradation ladder's replay rung reuses it verbatim when there is
  /// no time to solve at all; callers must re-check feasibility against the
  /// current problem themselves.
  std::vector<int> previous_assignment(std::uint64_t key) const;

  SolveCacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    IlpSolution solution;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  SolveCacheStats stats_;
};

/// One warm-started solve through the cache, with the bookkeeping callers
/// need for metrics.  With `cache == nullptr` this is exactly
/// `solver.solve(problem)`.
struct CachedSolve {
  IlpSolution solution;
  bool exact_hit = false;
  bool warm_started = false;
  /// Objective of the repaired incumbent (valid when warm_started); the
  /// incumbent-quality gap is solution.objective - incumbent_objective.
  double incumbent_objective = 0.0;
};

/// `budget_fp` tags the cache entry with the solve budget that produced it
/// (see budget_fingerprint); 0 means untagged.  Entries stored under one
/// budget never exact-hit lookups under another, but still warm-start them.
CachedSolve solve_with_cache(const BranchAndBoundSolver& solver,
                             const BinaryProgram& problem, SolveCache* cache,
                             std::uint64_t key, std::uint64_t budget_fp = 0);

}  // namespace lpvs::solver
