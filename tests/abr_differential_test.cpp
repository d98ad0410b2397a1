// Differential harness for the joint ABR x transform program.
//
// build_joint_program emits a plain solver::BinaryProgram, so the solver
// stack's ground-truth chain extends to rung variables unchanged: over
// hundreds of random joint instances (devices x ladders x budgets x QoE
// floors), the served branch-and-bound, the dense reference B&B
// (oracle::DenseBranchAndBound), and the exhaustive enumerator must agree on
// status and objective, and the decoded selection must respect the
// multiple-choice rows (at most one menu entry per device).
//
// Instances stay at <= 3 devices x <= 4 rungs (<= 21 columns) so the
// exhaustive 2^n sweep stays cheap; every failure message carries the
// trial seed for replay in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "lpvs/abr/joint.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/oracle.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::abr {
namespace {

constexpr int kTrials = 600;

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

core::DeviceSlotInput random_device(common::Rng& rng) {
  core::DeviceSlotInput device;
  device.id = common::DeviceId{static_cast<std::uint32_t>(rng())};
  const auto chunks = static_cast<std::size_t>(rng.uniform_int(2, 4));
  device.power_rates_mw.resize(chunks);
  device.chunk_durations_s.resize(chunks);
  for (std::size_t k = 0; k < chunks; ++k) {
    device.power_rates_mw[k] = rng.uniform(300.0, 1200.0);
    device.chunk_durations_s[k] = rng.uniform(50.0, 150.0);
  }
  device.battery_capacity_mwh = rng.uniform(2500.0, 13000.0);
  device.initial_energy_mwh =
      device.battery_capacity_mwh * rng.uniform(0.02, 1.0);
  // ~10% transform-ineligible devices (gamma estimate collapsed).
  device.gamma = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.13, 0.49);
  device.compute_cost = rng.uniform(0.2, 1.2);
  device.storage_cost = rng.uniform(20.0, 200.0);
  return device;
}

LadderModel::Config random_ladder(common::Rng& rng) {
  LadderModel::Config config;
  config.rungs_mbps.clear();
  const int rungs = rng.uniform_int(2, 4);
  double rate = rng.uniform(0.5, 1.5);
  for (int m = 0; m < rungs; ++m) {
    config.rungs_mbps.push_back(rate);
    rate *= rng.uniform(1.3, 2.0);
  }
  config.receive_base_mw = rng.uniform(200.0, 500.0);
  config.receive_mw_per_mbps = rng.uniform(100.0, 300.0);
  return config;
}

/// Random joint instance spanning the regimes the server can produce:
/// loose and binding edge capacities, bounded and unbounded receive
/// budgets, dead links, deep buffers, QoE floors on and off.
JointSlotProblem random_problem(common::Rng& rng) {
  JointSlotProblem problem;
  const int devices = rng.uniform_int(1, 3);
  for (int d = 0; d < devices; ++d) {
    problem.base.devices.push_back(random_device(rng));
    DeviceStreamState stream;
    stream.buffer_s = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 60.0);
    stream.throughput_mbps =
        rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.5, 40.0);
    problem.streams.push_back(stream);
  }
  problem.base.compute_capacity = rng.uniform(0.2, 2.5);
  problem.base.storage_capacity = rng.uniform(30.0, 500.0);
  problem.base.lambda = rng.uniform(500.0, 4000.0);
  problem.ladder = LadderModel(random_ladder(rng));
  if (rng.uniform() < 0.4) {
    problem.receive_budget_mwh = rng.uniform(5.0, 120.0);  // binding regime
  }
  problem.qoe_weight = rng.uniform(500.0, 5000.0);
  problem.receive_energy_weight = rng.uniform(0.0, 100.0);
  if (rng.uniform() < 0.3) {
    problem.qoe_floor = rng.uniform(0.1, 1.2);
  }
  return problem;
}

solver::BranchAndBoundSolver::Options exact_options() {
  solver::BranchAndBoundSolver::Options options;
  options.max_nodes = 500'000;
  options.relative_gap = 0.0;
  return options;
}

TEST(AbrDifferential, JointSolvesAgreeAcrossEnginesAndExhaustive) {
  const solver::BranchAndBoundSolver revised(exact_options());
  const solver::oracle::DenseBranchAndBound dense(exact_options());
  const solver::oracle::ExhaustiveSolver exhaustive;

  long nonempty_instances = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(trial);
    common::Rng rng(seed);
    const JointSlotProblem problem = random_problem(rng);
    const JointProgram joint = build_joint_program(problem, anxiety());
    ASSERT_LE(joint.program.num_vars(), 22u) << "trial seed " << seed;
    if (joint.program.num_vars() > 0) ++nonempty_instances;

    const solver::IlpSolution truth = exhaustive.solve(joint.program);
    const solver::IlpSolution via_revised = revised.solve(joint.program);
    const solver::IlpSolution via_dense = dense.solve(joint.program);

    ASSERT_EQ(via_revised.status, truth.status) << "trial seed " << seed;
    ASSERT_EQ(via_dense.status, truth.status) << "trial seed " << seed;
    if (truth.status != solver::IlpStatus::kOptimal) continue;
    ASSERT_NEAR(via_revised.objective, truth.objective, 1e-9)
        << "trial seed " << seed;
    ASSERT_NEAR(via_dense.objective, truth.objective, 1e-9)
        << "trial seed " << seed;
    ASSERT_TRUE(joint.program.feasible(via_revised.x))
        << "trial seed " << seed;
    ASSERT_TRUE(joint.program.feasible(via_dense.x))
        << "trial seed " << seed;

    // The multiple-choice encoding holds in the optimum: at most one menu
    // entry per device, and decode_selection reads exactly that entry.
    std::vector<int> per_device(joint.device_count, 0);
    for (std::size_t j = 0; j < joint.entries.size(); ++j) {
      if (via_revised.x[j] != 0) ++per_device[joint.entries[j].device];
    }
    for (std::size_t d = 0; d < joint.device_count; ++d) {
      ASSERT_LE(per_device[d], 1) << "trial seed " << seed << " device " << d;
    }
    const JointSelection selection =
        decode_selection(joint, via_revised.x);
    for (std::size_t j = 0; j < joint.entries.size(); ++j) {
      if (via_revised.x[j] == 0) continue;
      const JointProgram::Entry& entry = joint.entries[j];
      ASSERT_EQ(selection.transform[entry.device],
                entry.transform != 0 ? 1 : 0)
          << "trial seed " << seed;
      ASSERT_EQ(selection.rung[entry.device], entry.rung)
          << "trial seed " << seed;
    }
  }
  // The generator must actually exercise the solvers, not emit all-empty
  // menus.
  EXPECT_GT(nonempty_instances, kTrials / 2);
}

/// The builder's column set and objective as it was spelled before devices
/// were priced once each: both compacted objectives and the untransformed
/// energy evaluated per (transform, rung) entry.
struct ReferenceColumns {
  std::vector<JointProgram::Entry> entries;
  std::vector<double> objective;
};

ReferenceColumns per_entry_reference(const JointSlotProblem& problem) {
  const LadderModel& ladder = problem.ladder;
  const auto seconds_of = [](const core::DeviceSlotInput& device) {
    double total = 0.0;
    for (double s : device.chunk_durations_s) total += s;
    return total;
  };
  ReferenceColumns ref;
  for (std::size_t d = 0; d < problem.base.devices.size(); ++d) {
    const core::DeviceSlotInput& device = problem.base.devices[d];
    const DeviceStreamState& stream = problem.streams[d];
    const double seconds = seconds_of(device);
    const bool transform_ok = core::eligible_for_transform(device);
    for (int t = 0; t <= 1; ++t) {
      if (t == 1 && !transform_ok) continue;
      for (std::size_t m = 0; m < ladder.size(); ++m) {
        if (t == 0 && m == 0) continue;
        const double slack =
            seconds > 0.0 ? 1.0 + stream.buffer_s / seconds : 1.0;
        if (m != 0 && ladder.bitrate_mbps(m) >
                          problem.throughput_safety * stream.throughput_mbps *
                              slack) {
          continue;
        }
        const double display_mwh = core::untransformed_energy_mwh(device) *
                                   (t == 1 ? 1.0 - device.gamma : 1.0);
        if (display_mwh + ladder.receive_energy_mwh(m, seconds) >
            device.initial_energy_mwh) {
          continue;
        }
        if (m > 0 && problem.qoe_floor > 0.0 &&
            ladder.utility(m) < problem.qoe_floor) {
          continue;
        }
        ref.entries.push_back({d, static_cast<std::uint8_t>(t), m});
      }
    }
  }
  for (const JointProgram::Entry& entry : ref.entries) {
    const core::DeviceSlotInput& device = problem.base.devices[entry.device];
    const double effective_lambda = problem.base.lambda * device.sla_weight;
    double c = 0.0;
    if (entry.transform != 0) {
      c += core::compacted_objective(device, false, anxiety(),
                                     effective_lambda) -
           core::compacted_objective(device, true, anxiety(),
                                     effective_lambda);
    }
    c += problem.qoe_weight * ladder.utility(entry.rung);
    c -= problem.receive_energy_weight *
         ladder.incremental_energy_mwh(entry.rung, seconds_of(device));
    ref.objective.push_back(c);
  }
  return ref;
}

TEST(AbrDifferential, ObjectiveColumnMatchesPerEntryPricingBitForBit) {
  long transform_columns = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = 31000 + static_cast<std::uint64_t>(trial);
    common::Rng rng(seed);
    JointSlotProblem problem = random_problem(rng);
    for (core::DeviceSlotInput& device : problem.base.devices) {
      if (rng.uniform() < 0.5) device.sla_weight = rng.uniform(0.5, 3.0);
    }
    const JointProgram joint = build_joint_program(problem, anxiety());
    const ReferenceColumns ref = per_entry_reference(problem);
    ASSERT_EQ(joint.entries.size(), ref.entries.size())
        << "trial seed " << seed;
    for (std::size_t j = 0; j < ref.entries.size(); ++j) {
      ASSERT_EQ(joint.entries[j].device, ref.entries[j].device);
      ASSERT_EQ(joint.entries[j].transform, ref.entries[j].transform);
      ASSERT_EQ(joint.entries[j].rung, ref.entries[j].rung);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(joint.program.objective[j]),
                std::bit_cast<std::uint64_t>(ref.objective[j]))
          << "trial seed " << seed << " column " << j;
      transform_columns += ref.entries[j].transform;
    }
  }
  EXPECT_GT(transform_columns, kTrials);
}

TEST(AbrDifferential, SchedulerObjectiveMatchesProgramOptimum) {
  // JointAbrScheduler at an exact budget must achieve the exhaustive
  // optimum of the very program it compiled — the end-to-end guarantee the
  // serving path inherits.
  const JointAbrScheduler scheduler(exact_options());
  const solver::oracle::ExhaustiveSolver exhaustive;

  for (int trial = 0; trial < 120; ++trial) {
    const std::uint64_t seed = 77000 + static_cast<std::uint64_t>(trial);
    common::Rng rng(seed);
    const JointSlotProblem problem = random_problem(rng);
    const JointProgram joint = build_joint_program(problem, anxiety());
    const solver::IlpSolution truth = exhaustive.solve(joint.program);
    const JointSchedule schedule =
        scheduler.schedule(problem, core::RunContext(anxiety()));

    // Rebuild the program value of the schedule's decisions.
    std::vector<int> x(joint.program.num_vars(), 0);
    for (std::size_t j = 0; j < joint.entries.size(); ++j) {
      const JointProgram::Entry& entry = joint.entries[j];
      if (schedule.rung[entry.device] == entry.rung &&
          schedule.display.x[entry.device] == (entry.transform != 0 ? 1 : 0) &&
          (entry.transform != 0 || entry.rung != 0)) {
        // Mark the one entry matching this device's decision (baseline
        // devices match no entry and stay all-zero).
        bool already = false;
        for (std::size_t k = 0; k < joint.entries.size(); ++k) {
          if (x[k] != 0 && joint.entries[k].device == entry.device) {
            already = true;
          }
        }
        if (!already) x[j] = 1;
      }
    }
    if (truth.status != solver::IlpStatus::kOptimal) continue;
    ASSERT_TRUE(joint.program.feasible(x)) << "trial seed " << seed;
    ASSERT_NEAR(joint.program.value(x), truth.objective, 1e-9)
        << "trial seed " << seed;
  }
}

}  // namespace
}  // namespace lpvs::abr
