// Warm-start and engine ablation on the Fig. 10 replay workload:
// consecutive-slot Phase-1 solves with realistic slot-to-slot deltas
// (battery drain, gamma posterior drift, viewer churn), swept over two
// branch-and-bound engines:
//
//   dense    the reference B&B of the test-support library
//            (solver::oracle::DenseBranchAndBound): depth-first, one dense
//            LP from scratch per node
//   revised  the served solver::BranchAndBoundSolver: presolve +
//            best-first B&B + per-node dual-simplex re-solve from the
//            parent basis
//
// and over both seeding legs per engine — every solve cold (greedy seed)
// versus warm-started from the previous slot's assignment repaired into
// the B&B incumbent (solver::repair_assignment).  The incumbent is the
// whole warm start: both legs solve every root relaxation cold.  The
// served engine's warm leg goes through solver::SolveCache; the dense
// warm leg repairs the previous assignment itself.
//
// Every engine x leg also reports wall time per explored node and LP
// pivots per node (IlpSolution::lp_pivots), so a warm leg's effect on LP
// work shows apart from its effect on the node count.
//
// Acceptance claims this bench backs:
//   - warm-started consecutive-slot solves explore >= 30% fewer ILP nodes
//     than cold solves under the dense engine, with bit-identical
//     objectives (the historical claim, unchanged);
//   - the revised engine reaches >= 5x the warm slots/s of the dense
//     engine at 120 devices (stretch: >= 10x and p99 < 50 ms), with
//     objectives matching the dense oracle to 1e-9 relative.
//
// Capacity is scaled so ~45% of the cluster fits (the binding regime of
// Fig. 8): with loose capacity the root LP is integral and every solve is
// one node, cold or warm — there is nothing to measure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_output.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/common/table.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/solver/oracle.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace {

using namespace lpvs;

core::SlotProblem make_problem(common::Rng& rng, int devices) {
  core::SlotProblem problem;
  problem.lambda = 2000.0;
  // Mean compute cost is 0.55, mean storage 100 MB: admit roughly 45% of
  // the cluster on compute, 60% on storage, so both rows can bind.
  problem.compute_capacity = 0.45 * 0.55 * devices;
  problem.storage_capacity = 0.60 * 100.0 * devices;
  for (int n = 0; n < devices; ++n) {
    core::DeviceSlotInput device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(n)};
    device.power_rates_mw.resize(30);
    device.chunk_durations_s.assign(30, 10.0);
    for (auto& p : device.power_rates_mw) p = rng.uniform(400.0, 1100.0);
    device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    device.initial_energy_mwh =
        device.battery_capacity_mwh * rng.uniform(0.08, 0.95);
    device.gamma = rng.uniform(0.13, 0.49);
    device.compute_cost = rng.uniform(0.3, 0.8);
    device.storage_cost = rng.uniform(50.0, 150.0);
    problem.devices.push_back(std::move(device));
  }
  return problem;
}

/// Advances the cluster one slot: batteries drain by roughly the slot's
/// playback energy, gamma posteriors drift, per-chunk power rates wobble
/// with the content, and ~2% of viewers churn — the small-delta structure
/// between adjacent windows that warm-starting exploits.
void advance_slot(common::Rng& rng, core::SlotProblem& problem) {
  for (auto& device : problem.devices) {
    double slot_mwh = 0.0;
    for (std::size_t k = 0; k < device.power_rates_mw.size(); ++k) {
      slot_mwh +=
          device.power_rates_mw[k] * device.chunk_durations_s[k] / 3600.0;
    }
    device.initial_energy_mwh = std::max(
        0.0, device.initial_energy_mwh - rng.uniform(0.6, 1.0) * slot_mwh);
    device.gamma =
        std::clamp(device.gamma + rng.uniform(-0.01, 0.01), 0.05, 0.6);
    for (auto& p : device.power_rates_mw) p += rng.uniform(-15.0, 15.0);
  }
  const int churn =
      std::max<int>(1, static_cast<int>(problem.devices.size()) / 50);
  for (int c = 0; c < churn; ++c) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(problem.devices.size()) - 1));
    core::DeviceSlotInput fresh;
    fresh.id = problem.devices[victim].id;
    fresh.power_rates_mw.resize(30);
    fresh.chunk_durations_s.assign(30, 10.0);
    for (auto& p : fresh.power_rates_mw) p = rng.uniform(400.0, 1100.0);
    fresh.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    fresh.initial_energy_mwh =
        fresh.battery_capacity_mwh * rng.uniform(0.08, 0.95);
    fresh.gamma = rng.uniform(0.13, 0.49);
    fresh.compute_cost = rng.uniform(0.3, 0.8);
    fresh.storage_cost = rng.uniform(50.0, 150.0);
    problem.devices[victim] = std::move(fresh);
  }
}

struct LegResult {
  long nodes = 0;
  long pivots = 0;  ///< LP pivots summed over the explored nodes
  double wall_ms = 0.0;
  std::vector<double> objectives;
  std::vector<double> slot_ms;  ///< per-slot solve latency

  double slots_per_sec() const {
    return wall_ms > 0.0
               ? 1000.0 * static_cast<double>(slot_ms.size()) / wall_ms
               : 0.0;
  }
  double us_per_node() const {
    return nodes > 0 ? 1000.0 * wall_ms / static_cast<double>(nodes) : 0.0;
  }
  double pivots_per_node() const {
    return nodes > 0
               ? static_cast<double>(pivots) / static_cast<double>(nodes)
               : 0.0;
  }

  lpvs::common::Json to_json() const {
    lpvs::common::Json leg = lpvs::common::Json::object();
    leg.set("nodes", nodes);
    leg.set("pivots", pivots);
    leg.set("us_per_node", us_per_node());
    leg.set("pivots_per_node", pivots_per_node());
    leg.set("wall_ms", wall_ms);
    leg.set("slots_per_sec", slots_per_sec());
    leg.set("p50_ms", lpvs::bench::percentile(slot_ms, 0.5));
    leg.set("p99_ms", lpvs::bench::percentile(slot_ms, 0.99));
    return leg;
  }
};

struct EngineRun {
  LegResult cold;
  LegResult warm;
  long warm_starts = 0;
  double node_cut_percent = 0.0;
};

}  // namespace

int main() {
  std::printf(
      "=== Warm-start x engine sweep: consecutive-slot Phase-1 solves "
      "(Fig. 10 workload) ===\n\n");

  constexpr int kSlots = 16;
  common::Table table({"engine", "devices", "cold nodes", "warm nodes",
                       "node cut", "cold ms", "warm ms", "cold us/node",
                       "warm us/node", "cold piv/node", "warm piv/node",
                       "warm slots/s", "warm p99 ms"});
  bool all_pass = true;
  common::Json rows = common::Json::array();

  for (const int devices : {40, 60, 120}) {
    // The identical slot-problem stream feeds every engine and leg.
    common::Rng rng(42);
    std::vector<core::SlotProblem> slots;
    slots.reserve(kSlots);
    core::SlotProblem problem = make_problem(rng, devices);
    for (int s = 0; s < kSlots; ++s) {
      slots.push_back(problem);
      advance_slot(rng, problem);
    }

    // Exact configuration on every leg: incumbents and basis memory may
    // only change *pruning*, so objectives must agree bit-for-bit between
    // a given engine's cold and warm legs (asserted per slot).
    solver::BranchAndBoundSolver::Options exact;
    exact.max_nodes = 500'000;
    exact.relative_gap = 0.0;

    auto run_leg = [&](auto&& solve_slot) {
      LegResult leg;
      const auto t0 = std::chrono::steady_clock::now();
      for (const core::SlotProblem& slot : slots) {
        const auto s0 = std::chrono::steady_clock::now();
        const solver::BinaryProgram program = core::phase1_program(slot);
        const solver::IlpSolution solution = solve_slot(program);
        const auto s1 = std::chrono::steady_clock::now();
        leg.nodes += solution.nodes_explored;
        leg.pivots += solution.lp_pivots;
        leg.objectives.push_back(solution.objective);
        leg.slot_ms.push_back(
            std::chrono::duration<double, std::milli>(s1 - s0).count());
      }
      const auto t1 = std::chrono::steady_clock::now();
      leg.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      return leg;
    };

    auto check_legs = [&](const char* engine, EngineRun& run) {
      run.node_cut_percent =
          run.cold.nodes > 0
              ? 100.0 *
                    static_cast<double>(run.cold.nodes - run.warm.nodes) /
                    static_cast<double>(run.cold.nodes)
              : 0.0;
      for (int s = 0; s < kSlots; ++s) {
        if (run.cold.objectives[static_cast<std::size_t>(s)] !=
            run.warm.objectives[static_cast<std::size_t>(s)]) {
          std::printf(
              "OBJECTIVE MISMATCH (%s, cold vs warm) at %d devices, "
              "slot %d: cold %.17g warm %.17g\n",
              engine, devices, s,
              run.cold.objectives[static_cast<std::size_t>(s)],
              run.warm.objectives[static_cast<std::size_t>(s)]);
          all_pass = false;
        }
      }
    };

    const solver::oracle::DenseBranchAndBound dense_solver(exact);
    EngineRun dense;
    dense.cold = run_leg(
        [&](const solver::BinaryProgram& p) { return dense_solver.solve(p); });
    std::vector<int> previous;
    dense.warm = run_leg([&](const solver::BinaryProgram& p) {
      solver::IlpSolution solution;
      if (previous.empty()) {
        solution = dense_solver.solve(p);
      } else {
        ++dense.warm_starts;
        solution =
            dense_solver.solve(p, solver::repair_assignment(p, previous));
      }
      previous = solution.x;
      return solution;
    });
    check_legs("dense", dense);

    const solver::BranchAndBoundSolver revised_solver(exact);
    EngineRun revised;
    revised.cold = run_leg([&](const solver::BinaryProgram& p) {
      return revised_solver.solve(p);
    });
    solver::SolveCache cache;
    revised.warm = run_leg([&](const solver::BinaryProgram& p) {
      return solver::solve_with_cache(revised_solver, p, &cache, /*key=*/1)
          .solution;
    });
    revised.warm_starts = cache.stats().warm_starts;
    check_legs("revised", revised);

    // Cross-engine agreement: the revised engine must land on the dense
    // oracle's objective (1e-9 relative) on every slot.
    for (int s = 0; s < kSlots; ++s) {
      const double want = dense.warm.objectives[static_cast<std::size_t>(s)];
      const double got =
          revised.warm.objectives[static_cast<std::size_t>(s)];
      const double scale = std::max(1.0, std::fabs(want));
      if (std::fabs(got - want) > 1e-9 * scale) {
        std::printf(
            "OBJECTIVE MISMATCH (dense vs revised) at %d devices, "
            "slot %d: dense %.17g revised %.17g\n",
            devices, s, want, got);
        all_pass = false;
      }
    }

    // Historical warm-start claim, enforced on the dense oracle.
    if (dense.node_cut_percent < 30.0) all_pass = false;

    const double speedup =
        dense.warm.wall_ms > 0.0 && revised.warm.wall_ms > 0.0
            ? revised.warm.slots_per_sec() / dense.warm.slots_per_sec()
            : 0.0;
    // Engine claim: >= 5x warm throughput at the largest cluster.
    if (devices == 120 && speedup < 5.0) all_pass = false;

    for (const auto& [label, run] :
         {std::pair<const char*, const EngineRun*>{"dense", &dense},
          std::pair<const char*, const EngineRun*>{"revised", &revised}}) {
      table.add_row({label, std::to_string(devices),
                     std::to_string(run->cold.nodes),
                     std::to_string(run->warm.nodes),
                     common::Table::num(run->node_cut_percent, 1) + "%",
                     common::Table::num(run->cold.wall_ms, 1),
                     common::Table::num(run->warm.wall_ms, 1),
                     common::Table::num(run->cold.us_per_node(), 2),
                     common::Table::num(run->warm.us_per_node(), 2),
                     common::Table::num(run->cold.pivots_per_node(), 2),
                     common::Table::num(run->warm.pivots_per_node(), 2),
                     common::Table::num(run->warm.slots_per_sec(), 1),
                     common::Table::num(
                         bench::percentile(run->warm.slot_ms, 0.99), 3)});

      common::Json row = common::Json::object();
      row.set("engine", label);
      row.set("devices", devices);
      row.set("slots", kSlots);
      row.set("node_cut_percent", run->node_cut_percent);
      row.set("warm_starts", run->warm_starts);
      row.set("cold", run->cold.to_json());
      row.set("warm", run->warm.to_json());
      if (devices == 120 && std::string(label) == "revised") {
        row.set("speedup_vs_dense_warm", speedup);
      }
      rows.push(std::move(row));
    }
    std::printf("%d devices: revised warm throughput %.1fx dense warm\n",
                devices, speedup);
  }

  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "acceptance (dense: >=30%% node cut, identical objectives; revised: "
      "matches oracle, >=5x warm slots/s at 120 devices): %s\n",
      all_pass ? "PASS" : "FAIL");

  common::Json knobs = common::Json::object();
  knobs.set("seed", 42);
  knobs.set("slots", static_cast<long>(kSlots));
  common::Json device_sweep = common::Json::array();
  for (const int devices : {40, 60, 120}) device_sweep.push(devices);
  knobs.set("devices", std::move(device_sweep));
  common::Json engine_sweep = common::Json::array();
  engine_sweep.push("dense");
  engine_sweep.push("revised");
  knobs.set("engines", std::move(engine_sweep));

  const bool wrote = lpvs::bench::write_bench_json(
      "warm_start",
      lpvs::bench::bench_doc("warm_start", all_pass, std::move(knobs),
                             std::move(rows)));
  return all_pass && wrote ? 0 : 1;
}
