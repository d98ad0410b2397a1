// Tests for the LPVS two-phase scheduler and the baseline selectors:
// feasibility of every schedule, Phase-1 exactness, Phase-2 improvement,
// the dominance relations the paper's evaluation relies on, the
// scheduler's per-stream solve-cache lookups, and bit-identity of Phase-2
// and scoring against an eager reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/core/slot_problem_config.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/obs/event_trace.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/oracle.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::core {
namespace {

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

const core::RunContext& context() {
  static const core::RunContext ctx(anxiety());
  return ctx;
}

SlotProblem random_problem(common::Rng& rng, std::size_t devices,
                           double capacity_fraction = 0.4,
                           double lambda = 2000.0) {
  SlotProblem problem;
  problem.lambda = lambda;
  double total_compute = 0.0;
  double total_storage = 0.0;
  for (std::size_t n = 0; n < devices; ++n) {
    DeviceSlotInput device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(n)};
    const std::size_t chunks =
        10 + static_cast<std::size_t>(rng.uniform_int(0, 20));
    device.power_rates_mw.resize(chunks);
    device.chunk_durations_s.assign(chunks, 10.0);
    for (std::size_t k = 0; k < chunks; ++k) {
      device.power_rates_mw[k] = rng.uniform(400.0, 1100.0);
    }
    device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    device.initial_energy_mwh =
        device.battery_capacity_mwh * rng.uniform(0.08, 0.95);
    device.gamma = rng.uniform(0.13, 0.49);
    device.compute_cost = rng.uniform(0.3, 1.0);
    device.storage_cost = rng.uniform(30.0, 120.0);
    total_compute += device.compute_cost;
    total_storage += device.storage_cost;
    problem.devices.push_back(std::move(device));
  }
  problem.compute_capacity = total_compute * capacity_fraction;
  problem.storage_capacity = total_storage;  // storage loose by default
  return problem;
}

bool schedule_feasible(const SlotProblem& problem, const Schedule& s) {
  double compute = 0.0;
  double storage = 0.0;
  for (std::size_t n = 0; n < problem.devices.size(); ++n) {
    if (!s.x[n]) continue;
    if (!eligible_for_transform(problem.devices[n])) return false;
    compute += problem.devices[n].compute_cost;
    storage += problem.devices[n].storage_cost;
  }
  return compute <= problem.compute_capacity + 1e-6 &&
         storage <= problem.storage_capacity + 1e-6;
}

TEST(ScoreSelection, AllZeroMatchesBaselineFields) {
  common::Rng rng(1);
  const SlotProblem problem = random_problem(rng, 20);
  const Schedule s = score_selection(
      problem, anxiety(), std::vector<int>(problem.devices.size(), 0));
  EXPECT_DOUBLE_EQ(s.objective, s.baseline_objective);
  EXPECT_DOUBLE_EQ(s.energy_spent_mwh, s.baseline_energy_mwh);
  EXPECT_DOUBLE_EQ(s.anxiety_sum, s.baseline_anxiety_sum);
  EXPECT_EQ(s.selected_count(), 0);
  EXPECT_DOUBLE_EQ(s.energy_saving_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(s.anxiety_reduction_ratio(), 0.0);
}

TEST(ScoreSelection, FullSelectionSavesEnergy) {
  common::Rng rng(2);
  const SlotProblem problem = random_problem(rng, 20, 10.0);
  std::vector<int> all(problem.devices.size(), 1);
  const Schedule s = score_selection(problem, anxiety(), std::move(all));
  EXPECT_GT(s.energy_saving_ratio(), 0.1);
  EXPECT_GE(s.anxiety_reduction_ratio(), 0.0);
  EXPECT_LT(s.objective, s.baseline_objective);
}

TEST(NoTransform, SelectsNothing) {
  common::Rng rng(3);
  const SlotProblem problem = random_problem(rng, 15);
  const Schedule s = NoTransformScheduler().schedule(problem, context());
  EXPECT_EQ(s.selected_count(), 0);
}

TEST(LpvsSchedulerTest, EmptyProblem) {
  SlotProblem problem;
  const Schedule s = LpvsScheduler().schedule(problem, context());
  EXPECT_TRUE(s.x.empty());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(LpvsSchedulerTest, SufficientCapacityServesAllEligible) {
  common::Rng rng(4);
  const SlotProblem problem = random_problem(rng, 30, 10.0);
  const Schedule s = LpvsScheduler().schedule(problem, context());
  int eligible = 0;
  for (const auto& device : problem.devices) {
    eligible += eligible_for_transform(device) ? 1 : 0;
  }
  EXPECT_EQ(s.selected_count(), eligible);
}

TEST(LpvsSchedulerTest, NeverSelectsIneligible) {
  common::Rng rng(5);
  SlotProblem problem = random_problem(rng, 20, 10.0);
  problem.devices[3].initial_energy_mwh = 0.001;  // dying battery
  problem.devices[7].gamma = 0.0;
  const Schedule s = LpvsScheduler().schedule(problem, context());
  EXPECT_EQ(s.x[3], 0);
  EXPECT_EQ(s.x[7], 0);
}

TEST(LpvsSchedulerTest, Phase1MatchesExhaustiveOnEnergy) {
  // With lambda irrelevant, Phase-1's selection must equal the exact
  // optimum of the energy-saving knapsack.
  common::Rng rng(6);
  const SlotProblem problem = random_problem(rng, 12, 0.4);
  const Schedule phase1 =
      LpvsScheduler().schedule_phase1_only(problem, context());

  solver::BinaryProgram program;
  const std::size_t n = problem.devices.size();
  program.objective.resize(n);
  program.rows.assign(2, std::vector<double>(n));
  program.rhs = {problem.compute_capacity, problem.storage_capacity};
  program.eligible.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    program.objective[j] = problem.devices[j].gamma *
                           untransformed_energy_mwh(problem.devices[j]);
    program.rows[0][j] = problem.devices[j].compute_cost;
    program.rows[1][j] = problem.devices[j].storage_cost;
    program.eligible[j] =
        eligible_for_transform(problem.devices[j]) ? 1 : 0;
  }
  const solver::IlpSolution exact =
      solver::oracle::ExhaustiveSolver().solve(program);
  double phase1_saving = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (phase1.x[j]) phase1_saving += program.objective[j];
  }
  // The scheduler runs its B&B with a 0.01% relative gap (see
  // scheduler_ilp_defaults), so allow exactly that slack here.
  EXPECT_NEAR(phase1_saving, exact.objective, 1e-4 * exact.objective + 1e-6);
}

TEST(LpvsSchedulerTest, Phase2NeverWorsensObjective) {
  common::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const SlotProblem problem =
        random_problem(rng, 40, 0.3, /*lambda=*/5000.0);
    const LpvsScheduler scheduler;
    const Schedule p1 = scheduler.schedule_phase1_only(problem, context());
    const Schedule full = scheduler.schedule(problem, context());
    EXPECT_LE(full.objective, p1.objective + 1e-6) << "trial " << trial;
    EXPECT_TRUE(schedule_feasible(problem, full));
  }
}

TEST(LpvsSchedulerTest, Phase2HelpsAnxiousUsersUnderHighLambda) {
  // Construct two identical-energy users, one at 22% battery and one at
  // 85%; capacity for one.  With large lambda, LPVS must pick the anxious
  // one even though Phase-1 alone is indifferent.
  SlotProblem problem;
  problem.lambda = 50000.0;
  problem.compute_capacity = 0.5;
  problem.storage_capacity = 1000.0;
  for (double fraction : {0.85, 0.22}) {
    DeviceSlotInput device;
    device.id = common::DeviceId{fraction < 0.5 ? 1u : 0u};
    device.power_rates_mw.assign(30, 700.0);
    device.chunk_durations_s.assign(30, 10.0);
    device.battery_capacity_mwh = 3000.0;
    device.initial_energy_mwh = 3000.0 * fraction;
    device.gamma = 0.3;
    device.compute_cost = 0.5;
    device.storage_cost = 50.0;
    problem.devices.push_back(std::move(device));
  }
  const Schedule s = LpvsScheduler().schedule(problem, context());
  EXPECT_EQ(s.selected_count(), 1);
  EXPECT_EQ(s.x[1], 1) << "the 22% user must win under high lambda";
}

TEST(LpvsSchedulerTest, SlaWeightBreaksTiesTowardPremiumUsers) {
  // Two identical low-battery users, capacity for one; the premium tier's
  // higher anxiety weight must win the slot (Remark 3's SLA hook).
  SlotProblem problem;
  problem.lambda = 20000.0;
  problem.compute_capacity = 0.5;
  problem.storage_capacity = 1000.0;
  for (double weight : {1.0, 4.0}) {
    DeviceSlotInput device;
    device.id = common::DeviceId{weight > 1.0 ? 1u : 0u};
    device.power_rates_mw.assign(30, 700.0);
    device.chunk_durations_s.assign(30, 10.0);
    device.battery_capacity_mwh = 3000.0;
    device.initial_energy_mwh = 3000.0 * 0.25;
    device.gamma = 0.3;
    device.compute_cost = 0.5;
    device.storage_cost = 50.0;
    device.sla_weight = weight;
    problem.devices.push_back(std::move(device));
  }
  const Schedule s = LpvsScheduler().schedule(problem, context());
  EXPECT_EQ(s.selected_count(), 1);
  EXPECT_EQ(s.x[1], 1) << "the premium user must be served";

  const Schedule joint = JointOptimalScheduler().schedule(problem, context());
  EXPECT_EQ(joint.x[1], 1);
}

TEST(LpvsSchedulerTest, SlaWeightOneIsNeutral) {
  common::Rng rng(13);
  SlotProblem problem = random_problem(rng, 20, 0.4, 5000.0);
  const Schedule base = LpvsScheduler().schedule(problem, context());
  for (auto& device : problem.devices) device.sla_weight = 1.0;
  const Schedule same = LpvsScheduler().schedule(problem, context());
  EXPECT_EQ(base.x, same.x);
}

TEST(Baselines, AllReturnFeasibleSchedules) {
  common::Rng rng(8);
  const SlotProblem problem = random_problem(rng, 35, 0.35);
  const RandomScheduler random_sched(99);
  const GreedyEnergyScheduler greedy_energy;
  const GreedyAnxietyScheduler greedy_anxiety;
  const JointOptimalScheduler joint;
  const LpvsScheduler lpvs;
  for (const Scheduler* s :
       std::initializer_list<const Scheduler*>{
           &random_sched, &greedy_energy, &greedy_anxiety, &joint, &lpvs}) {
    const Schedule schedule = s->schedule(problem, context());
    EXPECT_TRUE(schedule_feasible(problem, schedule)) << s->name();
    EXPECT_EQ(schedule.x.size(), problem.devices.size()) << s->name();
  }
}

TEST(Baselines, LpvsBeatsRandomOnEnergy) {
  common::Rng rng(9);
  double lpvs_total = 0.0;
  double random_total = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    const SlotProblem problem = random_problem(rng, 40, 0.3, 0.0);
    lpvs_total +=
        LpvsScheduler().schedule(problem, context()).energy_saving_ratio();
    random_total += RandomScheduler(trial)
                        .schedule(problem, context())
                        .energy_saving_ratio();
  }
  EXPECT_GT(lpvs_total, random_total);
}

TEST(Baselines, JointOptimalNeverWorseThanLpvs) {
  common::Rng rng(10);
  for (int trial = 0; trial < 8; ++trial) {
    const SlotProblem problem = random_problem(rng, 25, 0.35, 3000.0);
    const double lpvs =
        LpvsScheduler().schedule(problem, context()).objective;
    const double joint =
        JointOptimalScheduler().schedule(problem, context()).objective;
    EXPECT_LE(joint, lpvs + 1e-6) << "trial " << trial;
  }
}

TEST(Baselines, GreedyAnxietyPrefersLowBattery) {
  common::Rng rng(11);
  SlotProblem problem = random_problem(rng, 20, 0.25);
  // Find the most anxious eligible device; greedy-anxiety must serve it.
  std::size_t most_anxious = 0;
  double best = -1.0;
  for (std::size_t n = 0; n < problem.devices.size(); ++n) {
    if (!eligible_for_transform(problem.devices[n])) continue;
    const double a = anxiety()(problem.devices[n].initial_energy_mwh /
                               problem.devices[n].battery_capacity_mwh);
    if (a > best) {
      best = a;
      most_anxious = n;
    }
  }
  const Schedule s =
      GreedyAnxietyScheduler().schedule(problem, context());
  EXPECT_EQ(s.x[most_anxious], 1);
}

TEST(RunContextBuilders, EachBuilderBindsACopyAndLeavesTheBaseUntouched) {
  const RunContext base(anxiety());
  obs::MetricsRegistry registry;
  obs::EventTrace trace;
  solver::SolveCache cache;
  const fault::FaultInjector injector;

  const RunContext bound = base.with_metrics(&registry)
                               .with_trace(&trace)
                               .with_solve_cache(&cache, 17)
                               .with_fault_injector(&injector)
                               .with_deadline(SlotDeadline{12.5, 2})
                               .with_slot(9);
  EXPECT_EQ(&bound.anxiety_model(), &anxiety());
  EXPECT_EQ(bound.metrics, &registry);
  EXPECT_EQ(bound.events, &trace);
  EXPECT_EQ(bound.solve_cache, &cache);
  EXPECT_EQ(bound.solve_key, 17u);
  EXPECT_EQ(bound.faults, &injector);
  EXPECT_EQ(bound.deadline.budget_ms, 12.5);
  EXPECT_EQ(bound.deadline.force_rung, 2);
  EXPECT_EQ(bound.slot, 9);
  EXPECT_TRUE(bound.observed());

  EXPECT_EQ(base.metrics, nullptr);
  EXPECT_EQ(base.events, nullptr);
  EXPECT_EQ(base.solve_cache, nullptr);
  EXPECT_EQ(base.solve_key, 0u);
  EXPECT_EQ(base.faults, nullptr);
  EXPECT_FALSE(base.deadline.enabled());
  EXPECT_EQ(base.slot, -1);
  EXPECT_FALSE(base.observed());
  // Either sink alone makes a context observed.
  EXPECT_TRUE(base.with_trace(&trace).observed());
  EXPECT_TRUE(base.with_metrics(&registry).observed());
}

TEST(RunContextBuilders, FaultsActiveOnlyWithAnEnabledInjector) {
  const RunContext base(anxiety());
  EXPECT_FALSE(base.faults_active());
  const fault::FaultInjector disabled;
  EXPECT_FALSE(base.with_fault_injector(&disabled).faults_active());
  fault::FaultInjector::Config config;
  config.site(fault::FaultSite::kSolverBudget).drop = 0.5;
  const fault::FaultInjector enabled(config);
  EXPECT_TRUE(base.with_fault_injector(&enabled).faults_active());
}

TEST(SlotDeadlineTest, EnabledByABudgetOrAForcedRung) {
  EXPECT_FALSE(SlotDeadline{}.enabled());
  EXPECT_TRUE((SlotDeadline{0.5, -1}.enabled()));
  EXPECT_TRUE((SlotDeadline{0.0, 0}.enabled()));
  EXPECT_FALSE((SlotDeadline{-1.0, -1}.enabled()));
}

TEST(SlotProblemConfigBuilders, EachBuilderChangesOnlyItsField) {
  const SlotProblemConfig base;
  const auto same_except = [&](const SlotProblemConfig& c, const char* field) {
    const std::string f = field;
    if (f != "compute") EXPECT_EQ(c.compute_capacity, base.compute_capacity);
    if (f != "storage") {
      EXPECT_EQ(c.storage_capacity_mb, base.storage_capacity_mb);
    }
    if (f != "lambda") EXPECT_EQ(c.lambda, base.lambda);
    if (f != "chunks") EXPECT_EQ(c.chunks_per_slot, base.chunks_per_slot);
    if (f != "seconds") EXPECT_EQ(c.chunk_seconds, base.chunk_seconds);
    if (f != "scale") {
      EXPECT_EQ(c.effective_capacity_scale, base.effective_capacity_scale);
    }
    if (f != "seed") EXPECT_EQ(c.seed, base.seed);
  };
  EXPECT_EQ(base.with_compute_capacity(7.0).compute_capacity, 7.0);
  same_except(base.with_compute_capacity(7.0), "compute");
  EXPECT_EQ(base.with_storage_capacity_mb(64.0).storage_capacity_mb, 64.0);
  same_except(base.with_storage_capacity_mb(64.0), "storage");
  EXPECT_EQ(base.with_lambda(5.0).lambda, 5.0);
  same_except(base.with_lambda(5.0), "lambda");
  EXPECT_EQ(base.with_chunks_per_slot(3).chunks_per_slot, 3);
  same_except(base.with_chunks_per_slot(3), "chunks");
  EXPECT_EQ(base.with_chunk_seconds(2.0).chunk_seconds, 2.0);
  same_except(base.with_chunk_seconds(2.0), "seconds");
  EXPECT_EQ(base.with_effective_capacity_scale(0.5).effective_capacity_scale,
            0.5);
  same_except(base.with_effective_capacity_scale(0.5), "scale");
  EXPECT_EQ(base.with_seed(99).seed, 99u);
  same_except(base.with_seed(99), "seed");
}

TEST(SchedulerOptionsFor, TheConfiguredEngineReachesTheSolver) {
  // The served Phase-1 solve lands within the scheduler's relative gap of
  // the dense reference B&B run under the same budget.
  common::Rng rng(23);
  const SlotProblem problem = random_problem(rng, 14, 0.4);
  const Schedule revised =
      LpvsScheduler().schedule_phase1_only(problem, context());
  const solver::IlpSolution reference =
      solver::oracle::DenseBranchAndBound(scheduler_ilp_defaults())
          .solve(phase1_program(problem));
  const Schedule dense = score_selection(problem, anxiety(), reference.x);
  const double dense_saving =
      dense.baseline_energy_mwh - dense.energy_spent_mwh;
  const double revised_saving =
      revised.baseline_energy_mwh - revised.energy_spent_mwh;
  EXPECT_GT(dense_saving, 0.0);
  EXPECT_NEAR(dense_saving, revised_saving, 2e-4 * dense_saving);
}

TEST(Schedule, CapacityAccountingMatchesSelection) {
  common::Rng rng(12);
  const SlotProblem problem = random_problem(rng, 25, 0.5);
  const Schedule s = LpvsScheduler().schedule(problem, context());
  double compute = 0.0;
  double storage = 0.0;
  for (std::size_t n = 0; n < problem.devices.size(); ++n) {
    if (s.x[n]) {
      compute += problem.devices[n].compute_cost;
      storage += problem.devices[n].storage_cost;
    }
  }
  EXPECT_NEAR(s.compute_used, compute, 1e-9);
  EXPECT_NEAR(s.storage_used, storage, 1e-9);
  EXPECT_LE(s.compute_used, problem.compute_capacity + 1e-6);
}

TEST(Schedule, SchedulerNames) {
  EXPECT_EQ(LpvsScheduler().name(), "lpvs");
  EXPECT_EQ(NoTransformScheduler().name(), "no-transform");
  EXPECT_EQ(RandomScheduler(1).name(), "random");
  EXPECT_EQ(GreedyEnergyScheduler().name(), "greedy-energy");
  EXPECT_EQ(GreedyAnxietyScheduler().name(), "greedy-anxiety");
  EXPECT_EQ(JointOptimalScheduler().name(), "joint-optimal");
}

/// One slot of consecutive clusters, one scheduler call per stream key
/// 0..n-1 through a shared cache — the way the emulator, the federation
/// and the daemon bind each cluster's RunContext.
void schedule_streams(const LpvsScheduler& scheduler, solver::SolveCache& cache,
                      const std::vector<SlotProblem>& problems) {
  for (std::size_t key = 0; key < problems.size(); ++key) {
    (void)scheduler.schedule(problems[key],
                             context().with_solve_cache(&cache, key));
  }
}

std::vector<SlotProblem> stream_problems(std::uint64_t seed,
                                         std::size_t streams) {
  common::Rng rng(seed);
  std::vector<SlotProblem> problems;
  for (std::size_t c = 0; c < streams; ++c) {
    problems.push_back(random_problem(rng, 8 + (c % 5) * 4, 0.45));
  }
  return problems;
}

TEST(SolveCacheLookup, ClassifiesColdAndWarmLookups) {
  const LpvsScheduler scheduler;
  solver::SolveCache cache;
  const auto problems = stream_problems(9, 4);

  // First sight of every stream key: all cold.
  schedule_streams(scheduler, cache, problems);
  EXPECT_EQ(cache.stats().cold_starts, 4);
  EXPECT_EQ(cache.stats().warm_starts, 0);

  // The next slot's drift: gamma posteriors move, so every stream's
  // Phase-1 objective changes and each solve is warm-started from the
  // stream's previous assignment.
  auto drifted = problems;
  for (auto& problem : drifted) {
    for (auto& device : problem.devices) {
      device.gamma = std::min(0.6, device.gamma + 0.003);
    }
  }
  schedule_streams(scheduler, cache, drifted);
  EXPECT_EQ(cache.stats().warm_starts, 4);
  EXPECT_EQ(cache.stats().cold_starts, 4);

  cache.clear();
  EXPECT_EQ(cache.stats().lookups, 0);
}

/// Reference Phase-2 and scoring: the eager loop that priced every
/// device's (13) benefit and start anxiety up front, re-checked
/// eligibility, and ran the untransformed pass twice per unselected
/// device.  The scheduler must reproduce its bits exactly.
struct ReferencePhase2 {
  std::vector<int> x;
  int swaps = 0;
  int additions = 0;
};

ReferencePhase2 eager_phase2(const SlotProblem& problem,
                             const survey::AnxietyModel& phi,
                             std::vector<int> x,
                             const LpvsScheduler::Options& options) {
  constexpr double kSlack = 1e-9;
  double compute_used = 0.0;
  double storage_used = 0.0;
  const auto fits = [&](const DeviceSlotInput& device) {
    return compute_used + device.compute_cost <=
               problem.compute_capacity + kSlack &&
           storage_used + device.storage_cost <=
               problem.storage_capacity + kSlack;
  };
  const auto add = [&](const DeviceSlotInput& device) {
    compute_used += device.compute_cost;
    storage_used += device.storage_cost;
  };
  const auto remove = [&](const DeviceSlotInput& device) {
    compute_used -= device.compute_cost;
    storage_used -= device.storage_cost;
  };

  ReferencePhase2 out;
  const std::size_t n = problem.devices.size();
  std::vector<double> benefit(n, 0.0);
  std::vector<double> start_anxiety(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const DeviceSlotInput& device = problem.devices[j];
    start_anxiety[j] =
        phi(device.initial_energy_mwh / device.battery_capacity_mwh);
    if (!eligible_for_transform(device)) {
      benefit[j] = -1.0;
      continue;
    }
    const double effective_lambda = problem.lambda * device.sla_weight;
    benefit[j] = compacted_objective(device, false, phi, effective_lambda) -
                 compacted_objective(device, true, phi, effective_lambda);
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j]) add(problem.devices[j]);
  }
  std::vector<std::size_t> anxious;
  for (std::size_t j = 0; j < n; ++j) {
    if (!x[j] && benefit[j] >= 0.0) anxious.push_back(j);
  }
  std::sort(anxious.begin(), anxious.end(),
            [&](std::size_t a, std::size_t b) {
              return start_anxiety[a] > start_anxiety[b];
            });
  constexpr double kTol = 1e-9;
  for (int pass = 0; pass < options.max_phase2_passes; ++pass) {
    bool changed = false;
    for (std::size_t u : anxious) {
      if (x[u]) continue;
      const DeviceSlotInput& incoming = problem.devices[u];
      if (options.augment_after_swaps && benefit[u] > kTol &&
          fits(incoming)) {
        add(incoming);
        x[u] = 1;
        ++out.additions;
        changed = true;
        continue;
      }
      std::ptrdiff_t victim = -1;
      double victim_benefit = benefit[u] - kTol;
      for (std::size_t s = 0; s < n; ++s) {
        if (!x[s] || s == u) continue;
        if (benefit[s] >= victim_benefit) continue;
        remove(problem.devices[s]);
        const bool ok = fits(incoming);
        add(problem.devices[s]);
        if (!ok) continue;
        victim = static_cast<std::ptrdiff_t>(s);
        victim_benefit = benefit[s];
      }
      if (victim >= 0) {
        const auto s = static_cast<std::size_t>(victim);
        remove(problem.devices[s]);
        add(incoming);
        x[s] = 0;
        x[u] = 1;
        ++out.swaps;
        changed = true;
      }
    }
    if (!changed) break;
  }
  out.x = std::move(x);
  return out;
}

Schedule two_pass_score(const SlotProblem& problem,
                        const survey::AnxietyModel& phi, std::vector<int> x) {
  Schedule schedule;
  schedule.x = std::move(x);
  for (std::size_t n = 0; n < problem.devices.size(); ++n) {
    const DeviceSlotInput& device = problem.devices[n];
    const bool transformed = schedule.x[n] != 0;
    const DeviceEvaluation with = evaluate_forward(device, transformed, phi);
    const DeviceEvaluation without = evaluate_forward(device, false, phi);
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const Schedule& want, const Schedule& got,
                      const std::string& where) {
  EXPECT_EQ(want.x, got.x) << where;
  EXPECT_EQ(bits(want.objective), bits(got.objective)) << where;
  EXPECT_EQ(bits(want.baseline_objective), bits(got.baseline_objective))
      << where;
  EXPECT_EQ(bits(want.energy_spent_mwh), bits(got.energy_spent_mwh))
      << where;
  EXPECT_EQ(bits(want.baseline_energy_mwh), bits(got.baseline_energy_mwh))
      << where;
  EXPECT_EQ(bits(want.anxiety_sum), bits(got.anxiety_sum)) << where;
  EXPECT_EQ(bits(want.baseline_anxiety_sum), bits(got.baseline_anxiety_sum))
      << where;
  EXPECT_EQ(bits(want.compute_used), bits(got.compute_used)) << where;
  EXPECT_EQ(bits(want.storage_used), bits(got.storage_used)) << where;
}

struct Phase2Case {
  const char* name;
  double capacity_fraction;
  double lambda;
  bool ineligible;       ///< knock some devices out of (11) / gamma
  bool sla_weights;      ///< draw sla_weight from [0.5, 3]
  int force_rung;        ///< -1 = full solve
  bool augment;          ///< LpvsScheduler::Options::augment_after_swaps
};

struct Phase2Totals {
  int swaps = 0;
  int additions = 0;
};

/// Runs `trials` seeded slot problems of one case against the reference
/// and returns the swaps and additions summed over them.
Phase2Totals check_against_reference(const Phase2Case& c,
                                            std::uint64_t seed, int trials) {
  common::Rng rng(seed);
  LpvsScheduler::Options options;
  options.augment_after_swaps = c.augment;
  const LpvsScheduler scheduler(options);
  RunContext ctx = context();
  if (c.force_rung >= 0) {
    ctx = ctx.with_deadline(SlotDeadline{.force_rung = c.force_rung});
  }
  Phase2Totals totals;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t devices =
        8 + static_cast<std::size_t>(rng.uniform_int(0, 52));
    SlotProblem problem =
        random_problem(rng, devices, c.capacity_fraction, c.lambda);
    for (DeviceSlotInput& device : problem.devices) {
      if (c.sla_weights) device.sla_weight = rng.uniform(0.5, 3.0);
      if (c.ineligible && rng.bernoulli(0.2)) {
        if (rng.bernoulli(0.5)) {
          device.gamma = 0.0;
        } else {
          device.initial_energy_mwh = 0.5;  // (11) fails
        }
      }
    }
    const std::string where = std::string(c.name) + " trial " +
                              std::to_string(trial) + " n " +
                              std::to_string(devices);
    const Schedule phase1 = scheduler.schedule_phase1_only(problem, ctx);
    expect_same_bits(two_pass_score(problem, anxiety(), phase1.x), phase1,
                     where + " (phase-1 score)");

    const ReferencePhase2 ref =
        eager_phase2(problem, anxiety(), phase1.x, options);
    const Schedule got = scheduler.schedule(problem, ctx);
    expect_same_bits(two_pass_score(problem, anxiety(), ref.x), got, where);
    EXPECT_EQ(ref.swaps, got.phase2_swaps) << where;
    EXPECT_EQ(ref.additions, got.phase2_additions) << where;
    totals.swaps += got.phase2_swaps;
    totals.additions += got.phase2_additions;
  }
  return totals;
}

TEST(Phase2Reference, TightCapacitySwapsBitIdentically) {
  const Phase2Totals totals = check_against_reference(
      {"tight", 0.3, 20000.0, false, false, -1, true}, 41, 40);
  EXPECT_GT(totals.swaps, 0) << "the tight case must exercise the victim scan";
}

TEST(Phase2Reference, LooseCapacityLeavesNobodyWaiting) {
  const Phase2Totals totals = check_against_reference(
      {"loose", 10.0, 20000.0, false, false, -1, true}, 42, 20);
  EXPECT_EQ(totals.swaps, 0);
  EXPECT_EQ(totals.additions, 0);
}

TEST(Phase2Reference, IneligibleDevicesAndSlaWeights) {
  check_against_reference({"ineligible", 0.3, 20000.0, true, false, -1, true},
                          43, 30);
  check_against_reference({"sla", 0.3, 5000.0, false, true, -1, true}, 44, 30);
  check_against_reference({"both", 0.5, 50000.0, true, true, -1, true}, 45,
                          30);
}

TEST(Phase2Reference, ForcedRepairRungAndNoAugmentation) {
  check_against_reference({"rung1", 0.3, 20000.0, true, true, 1, true}, 46,
                          30);
  EXPECT_EQ(check_against_reference(
                {"no-augment", 0.3, 20000.0, true, true, -1, false}, 47, 30)
                .additions,
            0);
}

/// Feasibility fuzz: every scheduler, many random problems, every capacity
/// regime — no schedule may ever violate (6), (7) or eligibility.
struct FuzzCase {
  std::uint64_t seed;
  double capacity_fraction;
  double lambda;
};

class SchedulerFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(SchedulerFuzz, AlwaysFeasible) {
  const FuzzCase& c = GetParam();
  common::Rng rng(c.seed);
  const SlotProblem problem =
      random_problem(rng, 30, c.capacity_fraction, c.lambda);
  const RandomScheduler random_sched(c.seed);
  const GreedyEnergyScheduler greedy_energy;
  const GreedyAnxietyScheduler greedy_anxiety;
  const LpvsScheduler lpvs;
  for (const Scheduler* s :
       std::initializer_list<const Scheduler*>{&random_sched, &greedy_energy,
                                               &greedy_anxiety, &lpvs}) {
    EXPECT_TRUE(schedule_feasible(problem, s->schedule(problem, context())))
        << s->name() << " seed=" << c.seed;
  }
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    for (double fraction : {0.1, 0.5, 2.0}) {
      for (double lambda : {0.0, 2000.0, 20000.0}) {
        cases.push_back({seed, fraction, lambda});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Regimes, SchedulerFuzz,
                         ::testing::ValuesIn(fuzz_cases()));

}  // namespace
}  // namespace lpvs::core
