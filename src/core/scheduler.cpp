#include "lpvs/core/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::core {
namespace {

/// Capacity bookkeeping shared by the greedy selectors and Phase-2.
struct CapacityTracker {
  double compute_used = 0.0;
  double storage_used = 0.0;
  double compute_capacity;
  double storage_capacity;

  explicit CapacityTracker(const SlotProblem& problem)
      : compute_capacity(problem.compute_capacity),
        storage_capacity(problem.storage_capacity) {}

  bool fits(const DeviceSlotInput& device) const {
    constexpr double kSlack = 1e-9;
    return compute_used + device.compute_cost <= compute_capacity + kSlack &&
           storage_used + device.storage_cost <= storage_capacity + kSlack;
  }
  void add(const DeviceSlotInput& device) {
    compute_used += device.compute_cost;
    storage_used += device.storage_cost;
  }
  void remove(const DeviceSlotInput& device) {
    compute_used -= device.compute_cost;
    storage_used -= device.storage_cost;
  }
};

/// Greedy admission over a device order; only eligible devices are taken.
Schedule admit_in_order(const SlotProblem& problem,
                        const survey::AnxietyModel& anxiety,
                        const std::vector<std::size_t>& order) {
  std::vector<int> x(problem.devices.size(), 0);
  CapacityTracker capacity(problem);
  for (std::size_t n : order) {
    const DeviceSlotInput& device = problem.devices[n];
    if (!eligible_for_transform(device)) continue;
    if (!capacity.fits(device)) continue;
    capacity.add(device);
    x[n] = 1;
  }
  return score_selection(problem, anxiety, std::move(x));
}

/// Records one cached solve's outcome (hit kind, node count, incumbent
/// quality) into the registry; shared by the two ILP-backed schedulers.
void record_solve_metrics(obs::MetricsRegistry* metrics,
                          const solver::CachedSolve& cached) {
  if (metrics == nullptr) return;
  if (cached.exact_hit) {
    metrics
        ->counter("lpvs_solver_cache_exact_hits_total",
                  "ILP solves skipped: identical problem fingerprint")
        .add(1);
    return;
  }
  if (cached.warm_started) {
    metrics
        ->counter("lpvs_solver_warm_starts_total",
                  "ILP solves seeded with the previous slot's assignment")
        .add(1);
    const double objective = cached.solution.objective;
    const double gap =
        objective > 0.0
            ? (objective - cached.incumbent_objective) / objective
            : 0.0;
    metrics
        ->histogram("lpvs_solver_incumbent_gap",
                    obs::MetricsRegistry::linear_buckets(0.0, 0.005, 21),
                    "Relative objective gap between the repaired warm-start "
                    "incumbent and the returned solution")
        .observe(std::max(gap, 0.0));
  } else {
    metrics
        ->counter("lpvs_solver_cold_starts_total",
                  "ILP solves with no usable predecessor (greedy seed)")
        .add(1);
  }
  metrics
      ->histogram("lpvs_solver_nodes_per_solve",
                  obs::MetricsRegistry::linear_buckets(0.0, 20.0, 26),
                  "Branch-and-bound nodes explored by one solve")
      .observe(static_cast<double>(cached.solution.nodes_explored));
  metrics
      ->counter("lpvs_solver_lp_pivots_total",
                "LP relaxation pivots summed over explored B&B nodes")
      .add(cached.solution.lp_pivots);
}

/// Key stride for per-rung fault decisions: each slot draws at most one
/// decision per rung, keyed (solve_key, slot * stride + rung), so replays
/// walk the identical rungs and adjacent slots draw independent faults.
constexpr std::uint64_t kRungStride = 8;
constexpr int kPassthroughRung =
    static_cast<int>(DegradationRung::kPassthrough);

/// Salt mixed into cache fingerprints of degraded (rung > 0) results so a
/// repaired or replayed assignment can warm-start later solves but never
/// masquerade as an exact full-quality hit.
constexpr std::uint64_t kDegradedFingerprintSalt = 0xD46A1D5C90F0C0DDULL;

}  // namespace

const char* degradation_rung_name(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kFullSolve:
      return "full_solve";
    case DegradationRung::kWarmRepair:
      return "warm_repair";
    case DegradationRung::kReplayPrevious:
      return "replay_previous";
    case DegradationRung::kPassthrough:
      return "passthrough";
  }
  return "unknown";
}

solver::BinaryProgram phase1_program(const SlotProblem& problem) {
  const std::size_t n = problem.devices.size();
  solver::BinaryProgram program;
  program.objective.resize(n);
  program.rows.assign(2, std::vector<double>(n, 0.0));
  program.rhs = {problem.compute_capacity, problem.storage_capacity};
  program.eligible.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const DeviceSlotInput& device = problem.devices[j];
    program.objective[j] = device.gamma * untransformed_energy_mwh(device);
    program.rows[0][j] = device.compute_cost;
    program.rows[1][j] = device.storage_cost;
    program.eligible[j] = eligible_for_transform(device) ? 1 : 0;
  }
  return program;
}

solver::BranchAndBoundSolver::Options scheduler_ilp_defaults() {
  return scheduler_ilp_defaults(solver::LpEngine::kRevised);
}

solver::BranchAndBoundSolver::Options scheduler_ilp_defaults(
    solver::LpEngine engine) {
  // The root LP plus LP-guided rounding already lands within a fraction of
  // a percent of the optimum on Phase-1-shaped knapsacks.  Proving exact
  // optimality can take an exponential tie-breaking frontier, which has no
  // business inside a 5-minute scheduling slot, so the node budget — not
  // the gap — ends most emulated-cluster solves (about 70% stop at it).
  solver::BranchAndBoundSolver::Options options;
  options.max_nodes = 200;
  options.relative_gap = 1e-4;
  options.engine = engine;
  return options;
}

LpvsScheduler::Options scheduler_options_for(const SlotProblemConfig& config) {
  LpvsScheduler::Options options;
  options.ilp = scheduler_ilp_defaults(config.lp_engine);
  return options;
}

int Schedule::selected_count() const {
  return static_cast<int>(std::count(x.begin(), x.end(), 1));
}

double Schedule::energy_saving_ratio() const {
  return baseline_energy_mwh > 0.0
             ? (baseline_energy_mwh - energy_spent_mwh) / baseline_energy_mwh
             : 0.0;
}

double Schedule::anxiety_reduction_ratio() const {
  return baseline_anxiety_sum > 0.0
             ? (baseline_anxiety_sum - anxiety_sum) / baseline_anxiety_sum
             : 0.0;
}

Schedule score_selection(const SlotProblem& problem,
                         const survey::AnxietyModel& anxiety,
                         std::vector<int> x) {
  assert(x.size() == problem.devices.size());
  Schedule schedule;
  schedule.x = std::move(x);
  for (std::size_t n = 0; n < problem.devices.size(); ++n) {
    const DeviceSlotInput& device = problem.devices[n];
    const bool transformed = schedule.x[n] != 0;
    const DeviceEvaluation without =
        evaluate_forward(device, /*transformed=*/false, anxiety);
    // An unselected device plays the untransformed slot: one pass suffices.
    const DeviceEvaluation with =
        transformed ? evaluate_forward(device, /*transformed=*/true, anxiety)
                    : without;
    const double effective_lambda = problem.lambda * device.sla_weight;
    schedule.objective += with.objective(effective_lambda);
    schedule.baseline_objective += without.objective(effective_lambda);
    schedule.energy_spent_mwh += with.energy_spent_mwh;
    schedule.baseline_energy_mwh += without.energy_spent_mwh;
    schedule.anxiety_sum += with.sum_anxiety;
    schedule.baseline_anxiety_sum += without.sum_anxiety;
    if (transformed) {
      schedule.compute_used += device.compute_cost;
      schedule.storage_used += device.storage_cost;
    }
  }
  return schedule;
}

Schedule LpvsScheduler::schedule(const SlotProblem& problem,
                                 const RunContext& context) const {
  return run(problem, context, /*run_phase2=*/true);
}

Schedule LpvsScheduler::schedule_phase1_only(const SlotProblem& problem,
                                             const RunContext& context) const {
  return run(problem, context, /*run_phase2=*/false);
}

Schedule LpvsScheduler::run(const SlotProblem& problem,
                            const RunContext& context,
                            bool run_phase2) const {
  const survey::AnxietyModel& anxiety = context.anxiety_model();
  const std::size_t n = problem.devices.size();

  // Observability: a null registry skips everything, and nothing recorded
  // here feeds back into the schedule (see run_context.hpp's contract).
  obs::Histogram* solve_ms_hist = nullptr;
  if (context.metrics != nullptr) {
    solve_ms_hist = &context.metrics->histogram(
        "lpvs_scheduler_solve_ms", obs::MetricsRegistry::time_buckets_ms(),
        "Wall-clock time of one two-phase schedule solve");
  }
  obs::ScopedTimer solve_timer(solve_ms_hist);

  // --- Degradation ladder: pick the rung this slot can afford. ---
  // A wall-clock deadline is converted into a node budget (deterministic —
  // no clock race), an active injector may knock the slot further down via
  // kSolverBudget drops, and force_rung pins the rung outright (ops kill
  // switch / test handle).
  int rung = 0;
  solver::BranchAndBoundSolver::Options ilp_options = options_.ilp;
  if (context.deadline.budget_ms > 0.0) {
    const long node_budget = std::max<long>(
        1, std::lround(context.deadline.budget_ms * options_.nodes_per_ms));
    if (node_budget < options_.min_full_solve_nodes) {
      rung = 1;
    } else if (node_budget < ilp_options.max_nodes) {
      ilp_options.max_nodes = node_budget;
    }
  }
  if (context.faults_active()) {
    const auto slot_key = static_cast<std::uint64_t>(context.slot + 1);
    while (rung < kPassthroughRung &&
           context.faults->should_drop(
               fault::FaultSite::kSolverBudget, context.solve_key,
               slot_key * kRungStride + static_cast<std::uint64_t>(rung))) {
      ++rung;
    }
  }
  const bool forced = context.deadline.force_rung >= 0;
  if (forced) {
    rung = std::min(context.deadline.force_rung, kPassthroughRung);
  }

  // --- Phase-1: exact ILP on the energy-only objective (14). ---
  // With a cache in the context, consecutive-slot solves for the same
  // stream key reuse the previous assignment as the B&B incumbent (or the
  // whole solution, when the problem is bit-identical).  Degraded rungs
  // skip the B&B: kWarmRepair greedy-repairs the previous assignment
  // against the new program (a cold repair degenerates to the density
  // greedy), kReplayPrevious replays it verbatim when it still fits, and
  // kPassthrough serves everyone untransformed.
  const solver::BinaryProgram program = phase1_program(problem);
  const std::uint64_t budget_fp = solver::budget_fingerprint(ilp_options);
  std::vector<int> x;
  long nodes = 0;
  if (rung == 0) {
    const solver::CachedSolve cached = solver::solve_with_cache(
        solver::BranchAndBoundSolver(ilp_options), program,
        context.solve_cache, context.solve_key, budget_fp);
    record_solve_metrics(context.metrics, cached);
    x = cached.solution.x;
    nodes = cached.solution.nodes_explored;
  } else {
    std::vector<int> previous;
    if (context.solve_cache != nullptr) {
      previous = context.solve_cache->previous_assignment(context.solve_key);
    }
    if (rung == 1) {
      x = solver::repair_assignment(program, previous);
    } else if (rung == 2) {
      if (previous.size() == n) {
        x = previous;
        for (std::size_t j = 0; j < n; ++j) {
          if (!program.is_eligible(j)) x[j] = 0;  // departed eligibility
        }
        if (!program.feasible(x)) rung = kPassthroughRung;
      } else {
        rung = kPassthroughRung;  // nothing to replay (cold / resized VC)
      }
    }
    if (rung == kPassthroughRung) x.clear();
    x.resize(n, 0);
    // Degraded results still feed the warm-start chain, under a salted
    // fingerprint so they can never exact-hit a full-quality lookup.
    // Passthrough is withheld: an all-zeros incumbent would poison repair.
    if (context.solve_cache != nullptr && rung < kPassthroughRung) {
      solver::IlpSolution degraded;
      degraded.status = solver::IlpStatus::kFeasible;
      degraded.x = x;
      degraded.objective = program.value(x);
      context.solve_cache->store(
          context.solve_key,
          solver::combine_fingerprints(
              solver::combine_fingerprints(solver::fingerprint(program),
                                           budget_fp),
              kDegradedFingerprintSalt + static_cast<std::uint64_t>(rung)),
          degraded);
    }
  }
  x.resize(n, 0);

  int swaps = 0;
  int additions = 0;

  // Verbatim replay and passthrough stay verbatim: Phase-2 only polishes
  // the rungs that already paid for a fresh Phase-1 answer.
  run_phase2 = run_phase2 && rung <= 1;

  if (run_phase2 && n > 0) {
    // --- Phase-2: anxiety-aware swapping on the full objective (13). ---
    // The objective is separable across devices, so a swap's effect is the
    // difference of per-device benefits (objective reduction if served).
    // Benefits are priced on demand: up front only for the unselected
    // eligible users (the only ones a swap can bring in), and for a
    // selected user the first time a victim scan weighs it.  When capacity
    // does not bind, Phase-1 selected every eligible user and nothing is
    // priced at all.
    std::vector<double> benefit(n, 0.0);
    std::vector<char> priced(n, 0);
    const auto benefit_of = [&](std::size_t j) {
      if (!priced[j]) {
        const DeviceSlotInput& device = problem.devices[j];
        benefit[j] = program.is_eligible(j)
                         ? transform_benefit(device, anxiety,
                                             problem.lambda * device.sla_weight)
                         : -1.0;  // never brought in by a swap
        priced[j] = 1;
      }
      return benefit[j];
    };

    CapacityTracker capacity(problem);
    for (std::size_t j = 0; j < n; ++j) {
      if (x[j]) capacity.add(problem.devices[j]);
    }

    // Unselected users ranked by anxiety degree, most anxious first —
    // the paper's "first (N - N') devices with the largest anxiety".
    std::vector<std::size_t> anxious;
    std::vector<double> start_anxiety(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (!x[j] && benefit_of(j) >= 0.0) {
        const DeviceSlotInput& device = problem.devices[j];
        start_anxiety[j] =
            anxiety(device.initial_energy_mwh / device.battery_capacity_mwh);
        anxious.push_back(j);
      }
    }
    std::sort(anxious.begin(), anxious.end(),
              [&](std::size_t a, std::size_t b) {
                return start_anxiety[a] > start_anxiety[b];
              });

    constexpr double kTol = 1e-9;
    for (int pass = 0; pass < options_.max_phase2_passes; ++pass) {
      bool changed = false;
      for (std::size_t u : anxious) {
        if (x[u]) continue;
        const DeviceSlotInput& incoming = problem.devices[u];
        // Direct admission into leftover capacity strictly improves (13).
        if (options_.augment_after_swaps && benefit[u] > kTol &&
            capacity.fits(incoming)) {
          capacity.add(incoming);
          x[u] = 1;
          ++additions;
          changed = true;
          continue;
        }
        // Otherwise look for the cheapest selected victim whose removal
        // both frees enough capacity and loses less than we gain.
        std::ptrdiff_t victim = -1;
        double victim_benefit = benefit[u] - kTol;
        for (std::size_t s = 0; s < n; ++s) {
          if (!x[s] || s == u) continue;
          if (benefit_of(s) >= victim_benefit) continue;
          capacity.remove(problem.devices[s]);
          const bool fits = capacity.fits(incoming);
          capacity.add(problem.devices[s]);
          if (!fits) continue;
          victim = static_cast<std::ptrdiff_t>(s);
          victim_benefit = benefit[s];
        }
        if (victim >= 0) {
          const auto s = static_cast<std::size_t>(victim);
          capacity.remove(problem.devices[s]);
          capacity.add(incoming);
          x[s] = 0;
          x[u] = 1;
          ++swaps;
          changed = true;
          if (context.events != nullptr) {
            context.events->record(
                {obs::EventKind::kPhase2Swap, /*slot=*/-1,
                 static_cast<int>(problem.devices[u].id.value),
                 {{"swapped_out",
                   static_cast<double>(problem.devices[s].id.value)},
                  {"gain", benefit[u] - benefit[s]}}});
          }
        }
      }
      if (!changed) break;
    }
  }

  Schedule schedule = score_selection(problem, anxiety, std::move(x));
  schedule.ilp_nodes = nodes;
  schedule.phase2_swaps = swaps;
  schedule.phase2_additions = additions;
  schedule.rung = static_cast<DegradationRung>(rung);

  if (context.metrics != nullptr) {
    context.metrics
        ->counter(std::string("lpvs_scheduler_rung_") +
                      degradation_rung_name(schedule.rung) + "_total",
                  "Slot solves that landed on this degradation rung")
        .add(1);
  }
  if (rung > 0 && context.events != nullptr) {
    context.events->record(
        {obs::EventKind::kDegradation, static_cast<int>(context.slot),
         /*device=*/-1,
         {{"rung", static_cast<double>(rung)},
          {"forced", forced ? 1.0 : 0.0}}});
  }

  if (context.metrics != nullptr) {
    context.metrics
        ->counter("lpvs_scheduler_solves_total",
                  "Two-phase schedule solves performed")
        .add(1);
    context.metrics
        ->counter("lpvs_scheduler_ilp_nodes_total",
                  "Branch-and-bound nodes explored by Phase-1")
        .add(nodes);
    context.metrics
        ->counter("lpvs_scheduler_phase2_swaps_total",
                  "Anxiety-driven Phase-2 swaps applied")
        .add(swaps);
    context.metrics
        ->counter("lpvs_scheduler_phase2_additions_total",
                  "Phase-2 greedy additions into leftover capacity")
        .add(additions);
    context.metrics
        ->histogram("lpvs_scheduler_selected_per_slot",
                    obs::MetricsRegistry::linear_buckets(0.0, 10.0, 21),
                    "Devices selected for transform per solve")
        .observe(static_cast<double>(schedule.selected_count()));
  }
  if (context.events != nullptr) {
    context.events->record(
        {obs::EventKind::kScheduleSolve, /*slot=*/-1, /*device=*/-1,
         {{"devices", static_cast<double>(n)},
          {"selected", static_cast<double>(schedule.selected_count())},
          {"ilp_nodes", static_cast<double>(nodes)},
          {"phase2_swaps", static_cast<double>(swaps)},
          {"phase2_additions", static_cast<double>(additions)},
          {"objective", schedule.objective}}});
  }
  return schedule;
}

Schedule NoTransformScheduler::schedule(const SlotProblem& problem,
                                        const RunContext& context) const {
  return score_selection(problem, context.anxiety_model(),
                         std::vector<int>(problem.devices.size(), 0));
}

Schedule RandomScheduler::schedule(const SlotProblem& problem,
                                   const RunContext& context) const {
  const survey::AnxietyModel& anxiety = context.anxiety_model();
  std::vector<std::size_t> order(problem.devices.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  common::Rng rng(seed_);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return admit_in_order(problem, anxiety, order);
}

Schedule GreedyEnergyScheduler::schedule(const SlotProblem& problem,
                                         const RunContext& context) const {
  const survey::AnxietyModel& anxiety = context.anxiety_model();
  const std::size_t n = problem.devices.size();
  std::vector<double> saving(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    saving[j] = problem.devices[j].gamma *
                untransformed_energy_mwh(problem.devices[j]);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return saving[a] > saving[b]; });
  return admit_in_order(problem, anxiety, order);
}

Schedule GreedyAnxietyScheduler::schedule(const SlotProblem& problem,
                                          const RunContext& context) const {
  const survey::AnxietyModel& anxiety = context.anxiety_model();
  const std::size_t n = problem.devices.size();
  std::vector<double> degree(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    degree[j] = anxiety(problem.devices[j].initial_energy_mwh /
                        problem.devices[j].battery_capacity_mwh);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return degree[a] > degree[b]; });
  return admit_in_order(problem, anxiety, order);
}

Schedule JointOptimalScheduler::schedule(const SlotProblem& problem,
                                         const RunContext& context) const {
  // (13) is separable, so the joint problem is itself a 2-row binary
  // program over per-device objective benefits.
  const survey::AnxietyModel& anxiety = context.anxiety_model();
  const std::size_t n = problem.devices.size();
  solver::BinaryProgram program;
  program.objective.resize(n);
  program.rows.assign(2, std::vector<double>(n, 0.0));
  program.rhs = {problem.compute_capacity, problem.storage_capacity};
  program.eligible.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const DeviceSlotInput& device = problem.devices[j];
    const bool ok = eligible_for_transform(device);
    program.eligible[j] = ok ? 1 : 0;
    program.objective[j] =
        ok ? transform_benefit(device, anxiety,
                               problem.lambda * device.sla_weight)
           : 0.0;
    program.rows[0][j] = device.compute_cost;
    program.rows[1][j] = device.storage_cost;
  }
  const solver::CachedSolve cached = solver::solve_with_cache(
      solver::BranchAndBoundSolver(options_), program, context.solve_cache,
      context.solve_key, solver::budget_fingerprint(options_));
  record_solve_metrics(context.metrics, cached);
  std::vector<int> x = cached.solution.x;
  x.resize(n, 0);
  Schedule schedule = score_selection(problem, anxiety, std::move(x));
  schedule.ilp_nodes = cached.solution.nodes_explored;
  return schedule;
}

}  // namespace lpvs::core
