#include "lpvs/abr/joint.hpp"

#include <cassert>

#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::abr {
namespace {

double slot_seconds(const core::DeviceSlotInput& device) {
  double total = 0.0;
  for (double s : device.chunk_durations_s) total += s;
  return total;
}

/// Battery affordability of (transform, rung): the slot's display energy at
/// the chosen transform plus the rung's receive+decode energy must fit the
/// device's remaining energy — the rung-aware analogue of constraint (11)'s
/// role as an eligibility filter.
/// `untransformed_mwh` is core::untransformed_energy_mwh(device).
bool battery_affords(const core::DeviceSlotInput& device,
                     double untransformed_mwh, bool transformed,
                     const LadderModel& ladder, std::size_t rung,
                     double seconds) {
  const double display_mwh =
      untransformed_mwh * (transformed ? 1.0 - device.gamma : 1.0);
  return display_mwh + ladder.receive_energy_mwh(rung, seconds) <=
         device.initial_energy_mwh;
}

/// Throughput admissibility (see JointSlotProblem::throughput_safety).
bool throughput_admits(const JointSlotProblem& problem,
                       const DeviceStreamState& stream, std::size_t rung,
                       double seconds) {
  if (rung == 0) return true;  // the baseline rung is always grantable
  const double slack =
      seconds > 0.0 ? 1.0 + stream.buffer_s / seconds : 1.0;
  return problem.ladder.bitrate_mbps(rung) <=
         problem.throughput_safety * stream.throughput_mbps * slack;
}

}  // namespace

JointProgram build_joint_program(const JointSlotProblem& problem,
                                 const survey::AnxietyModel& anxiety) {
  assert(problem.streams.size() == problem.base.devices.size());
  const std::size_t n = problem.base.devices.size();
  const LadderModel& ladder = problem.ladder;

  JointProgram joint;
  joint.device_count = n;

  // Pass 1: enumerate admissible menu entries in (device, transform, rung)
  // order — the deterministic column order every solver sees — and price
  // each device once for all of its entries.
  std::vector<double> seconds(n, 0.0);
  std::vector<double> benefit(n, 0.0);
  for (std::size_t d = 0; d < n; ++d) {
    const core::DeviceSlotInput& device = problem.base.devices[d];
    const DeviceStreamState& stream = problem.streams[d];
    seconds[d] = slot_seconds(device);
    const core::Phase1Terms terms = core::phase1_terms(device);
    const double untransformed_mwh = terms.untransformed_energy_mwh;
    const bool transform_ok = terms.eligible;
    if (transform_ok) {
      // The (13) benefit of turning the transform on — identical to what
      // JointOptimalScheduler maximizes, so the transform-only projection
      // of this program is the existing separable program.
      benefit[d] = core::transform_benefit(
          device, anxiety, problem.base.lambda * device.sla_weight);
    }
    for (int t = 0; t <= 1; ++t) {
      if (t == 1 && !transform_ok) continue;
      for (std::size_t m = 0; m < ladder.size(); ++m) {
        if (t == 0 && m == 0) continue;  // the implicit baseline
        if (!throughput_admits(problem, stream, m, seconds[d])) continue;
        if (!battery_affords(device, untransformed_mwh, t == 1, ladder, m,
                             seconds[d])) {
          continue;
        }
        if (m > 0 && problem.qoe_floor > 0.0 &&
            ladder.utility(m) < problem.qoe_floor) {
          continue;
        }
        joint.entries.push_back(
            {d, static_cast<std::uint8_t>(t), m});
      }
    }
  }

  const std::size_t cols = joint.entries.size();
  solver::BinaryProgram& program = joint.program;
  program.objective.resize(cols);
  // Rows: compute, storage, receive budget, then one per device.
  program.rows.assign(3 + n, std::vector<double>(cols, 0.0));
  program.rhs.assign(3 + n, 1.0);
  program.rhs[0] = problem.base.compute_capacity;
  program.rhs[1] = problem.base.storage_capacity;
  program.rhs[2] = problem.receive_budget_mwh;

  for (std::size_t j = 0; j < cols; ++j) {
    const JointProgram::Entry& entry = joint.entries[j];
    const core::DeviceSlotInput& device = problem.base.devices[entry.device];

    double c = 0.0;
    if (entry.transform != 0) {
      c += benefit[entry.device];
      program.rows[0][j] = device.compute_cost;
      program.rows[1][j] = device.storage_cost;
    }
    c += problem.qoe_weight * ladder.utility(entry.rung);
    const double rx_mwh =
        ladder.incremental_energy_mwh(entry.rung, seconds[entry.device]);
    c -= problem.receive_energy_weight * rx_mwh;
    program.rows[2][j] = rx_mwh;
    program.rows[3 + entry.device][j] = 1.0;  // one decision per user
    program.objective[j] = c;
  }
  return joint;
}

JointSelection decode_selection(const JointProgram& joint,
                                const std::vector<int>& x) {
  JointSelection selection;
  selection.transform.assign(joint.device_count, 0);
  selection.rung.assign(joint.device_count, 0);
  for (std::size_t j = 0; j < joint.entries.size() && j < x.size(); ++j) {
    if (x[j] == 0) continue;
    const JointProgram::Entry& entry = joint.entries[j];
    selection.transform[entry.device] = entry.transform != 0 ? 1 : 0;
    selection.rung[entry.device] = entry.rung;
  }
  return selection;
}

JointSchedule JointAbrScheduler::schedule(const JointSlotProblem& problem,
                                          const core::RunContext& context) const {
  const survey::AnxietyModel& anxiety = context.anxiety_model();
  const JointProgram joint = build_joint_program(problem, anxiety);

  const solver::CachedSolve cached = solver::solve_with_cache(
      solver::BranchAndBoundSolver(options_), joint.program,
      context.solve_cache, context.solve_key);
  const JointSelection selection =
      decode_selection(joint, cached.solution.x);

  JointSchedule result;
  result.display =
      core::score_selection(problem.base, anxiety, selection.transform);
  result.rung = selection.rung;
  result.rung_mbps.resize(joint.device_count);
  for (std::size_t d = 0; d < joint.device_count; ++d) {
    const double seconds = slot_seconds(problem.base.devices[d]);
    result.rung_mbps[d] = problem.ladder.bitrate_mbps(selection.rung[d]);
    result.receive_energy_mwh +=
        problem.ladder.receive_energy_mwh(selection.rung[d], seconds);
    result.incremental_rx_mwh +=
        problem.ladder.incremental_energy_mwh(selection.rung[d], seconds);
    result.qoe_utility_sum += problem.ladder.utility(selection.rung[d]);
  }
  result.ilp_nodes = cached.solution.nodes_explored;

  if (context.metrics != nullptr) {
    context.metrics
        ->counter("lpvs_abr_joint_solves_total",
                  "Joint ABR x transform slot solves performed")
        .add(1);
    context.metrics
        ->counter("lpvs_abr_joint_nodes_total",
                  "Branch-and-bound nodes explored by joint ABR solves")
        .add(result.ilp_nodes);
    obs::Histogram& rung_hist = context.metrics->histogram(
        "lpvs_abr_granted_rung",
        obs::MetricsRegistry::linear_buckets(0.0, 1.0, 9),
        "Granted ladder rung per device per slot");
    for (std::size_t d = 0; d < joint.device_count; ++d) {
      rung_hist.observe(static_cast<double>(selection.rung[d]));
    }
  }
  return result;
}

}  // namespace lpvs::abr
