// LPVS schedulers (SV): the two-phase heuristic and the baselines it is
// judged against.
//
// Phase-1 drops the nonlinear anxiety term and solves the remaining linear
// 0/1 program — maximize the slot's energy saving subject to the two edge
// capacity rows (6)(7), with the compacted constraint (11) as an
// eligibility filter — exactly, via branch-and-bound (the paper calls
// CPLEX/Gurobi here).  Phase-2 re-introduces phi: unselected users are
// ranked by anxiety degree and greedily swapped with selected users
// whenever the swap reduces the full lambda-weighted objective (13) and
// stays feasible.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lpvs/core/run_context.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::core {

/// How much of the two-phase heuristic a slot actually got before its
/// deadline/fault budget ran out.  LpvsScheduler walks these rungs top to
/// bottom; every rung below kFullSolve still yields a feasible schedule,
/// trading optimality for bounded latency (graceful degradation).
enum class DegradationRung : int {
  kFullSolve = 0,       ///< exact Phase-1 B&B (+ Phase-2)
  kWarmRepair = 1,      ///< greedy repair of the previous assignment
  kReplayPrevious = 2,  ///< previous slot's assignment replayed verbatim
  kPassthrough = 3,     ///< x = 0 everywhere (no-transform)
};

/// Stable lowercase label ("full_solve", "warm_repair", ...).
const char* degradation_rung_name(DegradationRung rung);

/// A slot schedule plus everything the evaluation section reports about it.
struct Schedule {
  std::vector<int> x;  ///< x_n per device

  double objective = 0.0;            ///< lambda-weighted objective (13)
  double baseline_objective = 0.0;   ///< same with x = 0
  double energy_spent_mwh = 0.0;     ///< across the VC, with this schedule
  double baseline_energy_mwh = 0.0;  ///< across the VC, untransformed
  double anxiety_sum = 0.0;          ///< sum of per-chunk anxiety degrees
  double baseline_anxiety_sum = 0.0;
  double compute_used = 0.0;
  double storage_used = 0.0;
  long ilp_nodes = 0;
  int phase2_swaps = 0;
  int phase2_additions = 0;
  /// Which ladder rung produced this schedule (kFullSolve unless the run
  /// context carried a deadline or an active fault injector).
  DegradationRung rung = DegradationRung::kFullSolve;

  int selected_count() const;
  double energy_saving_ratio() const;   ///< (baseline - actual) / baseline
  double anxiety_reduction_ratio() const;
};

/// Interface shared by LPVS and all baseline selectors.
///
/// The single entry point takes a RunContext: the anxiety model plus the
/// optional capabilities (metrics, tracing, solve cache, faults, deadline).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  virtual Schedule schedule(const SlotProblem& problem,
                            const RunContext& context) const = 0;
};

/// Scores a given selection vector: fills every metric field of Schedule.
/// All schedulers funnel through this so results are comparable.
Schedule score_selection(const SlotProblem& problem,
                         const survey::AnxietyModel& anxiety,
                         std::vector<int> x);

/// The Phase-1 binary program (14): maximize the slot energy saving under
/// the two capacity rows, with the compacted constraint (11) as the
/// eligibility mask.  Exposed so the differential test harness and the
/// warm-start bench can solve the exact workload the scheduler solves.
solver::BinaryProgram phase1_program(const SlotProblem& problem);

/// B&B settings tuned for per-slot scheduling: a 200-node budget and a
/// 1e-4 (0.01%) relative optimality gap, so the solver never chases ties
/// through an exponential frontier of equivalent optima inside a 5-minute
/// slot.
solver::BranchAndBoundSolver::Options scheduler_ilp_defaults();

/// The paper's two-phase heuristic (SV-C).
class LpvsScheduler : public Scheduler {
 public:
  struct Options {
    solver::BranchAndBoundSolver::Options ilp = scheduler_ilp_defaults();
    /// Upper bound on Phase-2 sweep passes over the unselected list.
    int max_phase2_passes = 2;
    /// Also greedily add eligible unselected users into leftover capacity
    /// when their objective benefit is positive (strictly improves (13)).
    bool augment_after_swaps = true;
    /// Deadline-to-node-budget conversion for SlotDeadline::budget_ms.
    /// Deterministic by construction: the budget truncates the B&B node
    /// limit instead of racing a wall clock, so two runs with the same
    /// deadline always produce bit-identical schedules.
    double nodes_per_ms = 100.0;
    /// Below this derived node budget a truncated B&B is pointless (the
    /// root LP alone dominates the cost); the ladder skips straight to
    /// kWarmRepair.
    long min_full_solve_nodes = 16;
  };

  LpvsScheduler() : LpvsScheduler(Options{}) {}
  explicit LpvsScheduler(Options options) : options_(options) {}

  std::string name() const override { return "lpvs"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override;

  /// Phase-1 only (exposed for the ablation bench).
  Schedule schedule_phase1_only(const SlotProblem& problem,
                                const RunContext& context) const;

 private:
  Schedule run(const SlotProblem& problem, const RunContext& context,
               bool run_phase2) const;

  Options options_;
};

/// x = 0 everywhere: conventional streaming without LPVS.
class NoTransformScheduler : public Scheduler {
 public:
  std::string name() const override { return "no-transform"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override;
};

/// Random admission until capacity runs out — the strategy SIII-C argues
/// "cannot be optimal".
class RandomScheduler : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "random"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override;

 private:
  std::uint64_t seed_;
};

/// Greedy by per-device energy saving (density on the binding resource).
class GreedyEnergyScheduler : public Scheduler {
 public:
  std::string name() const override { return "greedy-energy"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override;
};

/// Greedy by anxiety degree at the slot start (most anxious users first).
class GreedyAnxietyScheduler : public Scheduler {
 public:
  std::string name() const override { return "greedy-anxiety"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override;
};

/// Exact B&B on the full lambda-weighted objective (exploits that (13) is
/// separable across devices).  Not part of the paper — the reproduction's
/// upper bound for the ablation of the two-phase heuristic.
class JointOptimalScheduler : public Scheduler {
 public:
  explicit JointOptimalScheduler(
      solver::BranchAndBoundSolver::Options options = {})
      : options_(options) {}
  std::string name() const override { return "joint-optimal"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override;

 private:
  solver::BranchAndBoundSolver::Options options_;
};

}  // namespace lpvs::core
