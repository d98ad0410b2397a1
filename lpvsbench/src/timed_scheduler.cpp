#include "timed_scheduler.hpp"

#include "lpvs/core/slot_problem.hpp"

namespace lpvsbench {

namespace core = lpvs::core;

bool satisfies_capacity_rows(const core::SlotProblem& problem,
                             const core::Schedule& schedule) {
  if (schedule.x.size() != problem.devices.size()) return false;
  double compute = 0.0;
  double storage = 0.0;
  for (std::size_t n = 0; n < schedule.x.size(); ++n) {
    if (schedule.x[n] == 0) continue;
    if (schedule.x[n] != 1) return false;
    compute += problem.devices[n].compute_cost;
    storage += problem.devices[n].storage_cost;
  }
  constexpr double kSlack = 1e-9;
  return compute <= problem.compute_capacity + kSlack &&
         storage <= problem.storage_capacity + kSlack;
}

core::Schedule TimedScheduler::schedule(const core::SlotProblem& problem,
                                        const core::RunContext& context) const {
  CallRecord call;
  call.unit = unit_.load();
  const std::uint32_t parent = spans_ != nullptr ? spans_->parent() : 0;
  call.start = Clock::now();
  core::Schedule schedule = inner_.schedule(problem, context);
  call.end = Clock::now();

  call.devices = static_cast<int>(problem.devices.size());
  call.selected = schedule.selected_count();
  call.phase2_swaps = schedule.phase2_swaps;
  call.degraded = schedule.rung != core::DegradationRung::kFullSolve;
  call.violation = !satisfies_capacity_rows(problem, schedule);
  if (spans_ != nullptr) {
    for (const core::DeviceSlotInput& device : problem.devices) {
      if (core::eligible_for_transform(device)) ++call.eligible;
    }
    spans_->record(spans_->reserve(), parent, "core.schedule", call.start,
                   call.end);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  CallTotals& t = totals_;
  ++t.calls;
  if (call.violation) ++t.violations;
  t.busy_us += call.duration_us();
  t.devices += call.devices;
  t.eligible += call.eligible;
  t.selected += call.selected;
  t.phase2_swaps += call.phase2_swaps;
  t.degraded += call.degraded ? 1.0 : 0.0;
  t.objective += schedule.objective;
  t.baseline_objective += schedule.baseline_objective;
  t.energy_mwh += schedule.energy_spent_mwh;
  t.baseline_energy_mwh += schedule.baseline_energy_mwh;
  durations_us_.observe(call.duration_us());
  if (sink_) sink_(call);
  return schedule;
}

CallTotals TimedScheduler::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CallTotals totals = totals_;
  totals.duration_p50_us = durations_us_.quantile(0.50);
  totals.duration_p99_us = durations_us_.quantile(0.99);
  return totals;
}

double histogram_mean(const lpvs::obs::MetricsSnapshot& snapshot,
                      const char* name) {
  const lpvs::obs::HistogramSample* sample = snapshot.histogram(name);
  return sample != nullptr
             ? ratio(sample->sum, static_cast<double>(sample->count))
             : 0.0;
}

void add_core_and_solver_metrics(const CallTotals& t,
                                 const lpvs::obs::MetricsSnapshot& snapshot,
                                 double wall_s,
                                 std::map<std::string, double>& out) {
  const auto n = static_cast<double>(t.calls);
  out["core.calls"] = n;
  out["core.schedule_us_p50"] = t.duration_p50_us;
  out["core.schedule_us_p99"] = t.duration_p99_us;
  out["core.schedule_us_mean"] = ratio(t.busy_us, n);
  out["core.wall_share"] = ratio(t.busy_us, wall_s * 1e6);
  out["core.devices_per_call"] = ratio(t.devices, n);
  out["core.eligible_frac"] = ratio(t.eligible, t.devices);
  out["core.selected_per_call"] = ratio(t.selected, n);
  out["core.phase2_swaps_per_call"] = ratio(t.phase2_swaps, n);
  out["core.degraded_frac"] = ratio(t.degraded, n);
  out["core.objective_reduction_pct"] =
      100.0 * ratio(t.baseline_objective - t.objective, t.baseline_objective);
  out["core.energy_saving_pct"] =
      100.0 * ratio(t.baseline_energy_mwh - t.energy_mwh, t.baseline_energy_mwh);

  const lpvs::obs::HistogramSample* nodes =
      snapshot.histogram("lpvs_solver_nodes_per_solve");
  const double exact = static_cast<double>(
      snapshot.counter_value("lpvs_solver_cache_exact_hits_total"));
  const double warm = static_cast<double>(
      snapshot.counter_value("lpvs_solver_warm_starts_total"));
  const double cold = static_cast<double>(
      snapshot.counter_value("lpvs_solver_cold_starts_total"));
  out["solver.nodes_total"] = nodes != nullptr ? nodes->sum : 0.0;
  out["solver.nodes_per_solve"] =
      histogram_mean(snapshot, "lpvs_solver_nodes_per_solve");
  out["solver.cache_exact_hits"] = exact;
  out["solver.warm_starts"] = warm;
  out["solver.cold_starts"] = cold;
  out["solver.warm_hit_frac"] = ratio(exact + warm, exact + warm + cold);
}

}  // namespace lpvsbench
