// Decision-2 certificate (docs/paper_mapping.md): how close the served
// Phase-1 configuration — the revised engine with a 200-node budget and a
// 1e-4 relative gap, core::scheduler_ilp_defaults() — lands to optimal on
// Phase-1-shaped two-row programs, next to the density greedy baseline.
//
// The certificate is the LP relaxation value from the dense reference
// LpSolver (the test oracle), an engine independent of the served one.  It
// bounds every 0/1 point from above; for a two-row binary program it equals
// the Lagrangian dual bound (any multipliers give a bound at least as
// large), so "gap to LP bound" is an upper bound on each solver's distance
// from the true optimum.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "lpvs/common/rng.hpp"
#include "lpvs/common/table.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/oracle.hpp"

namespace {

lpvs::solver::BinaryProgram make_instance(lpvs::common::Rng& rng,
                                          std::size_t n) {
  lpvs::solver::BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(2, std::vector<double>(n));
  double c_total = 0.0;
  double s_total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(5.0, 60.0);
    p.rows[0][j] = rng.uniform(0.3, 0.9);
    p.rows[1][j] = rng.uniform(40.0, 160.0);
    c_total += p.rows[0][j];
    s_total += p.rows[1][j];
  }
  p.rhs = {0.4 * c_total, 0.5 * s_total};
  return p;
}

template <class F>
double timed_ms(F&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string gap_pct(double objective, double bound) {
  return lpvs::common::Table::num(100.0 * (bound - objective) / bound, 3);
}

}  // namespace

int main() {
  using namespace lpvs;
  using namespace lpvs::solver;

  std::printf("=== served Phase-1 B&B vs the LP bound, Phase-1-shaped "
              "instances ===\n\n");
  common::Table table({"n", "LP bound", "b&b obj", "b&b gap %", "nodes",
                       "status", "greedy obj", "greedy gap %", "b&b ms",
                       "greedy ms"});
  const BranchAndBoundSolver served(core::scheduler_ilp_defaults());
  common::Rng rng(12);
  double worst_gap = 0.0;
  for (std::size_t n : {50, 100, 200, 400, 800}) {
    const BinaryProgram p = make_instance(rng, n);
    const LpSolution bound = oracle::LpSolver().solve(LpProblem{
        p.objective, p.rows, p.rhs, std::vector<double>(n, 1.0)});

    IlpSolution bnb;
    const double bnb_ms = timed_ms([&] { bnb = served.solve(p); });
    IlpSolution greedy;
    const double greedy_ms =
        timed_ms([&] { greedy = GreedySolver().solve(p); });

    worst_gap = std::max(worst_gap,
                         (bound.objective - bnb.objective) / bound.objective);
    table.add_row({std::to_string(n), common::Table::num(bound.objective, 1),
                   common::Table::num(bnb.objective, 1),
                   gap_pct(bnb.objective, bound.objective),
                   std::to_string(bnb.nodes_explored), to_string(bnb.status),
                   common::Table::num(greedy.objective, 1),
                   gap_pct(greedy.objective, bound.objective),
                   common::Table::num(bnb_ms, 2),
                   common::Table::num(greedy_ms, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("the dense LP relaxation value upper-bounds every 0/1 point, "
              "so the served\nB&B is within %.3f%% of optimal on every "
              "instance above.\n",
              100.0 * worst_gap);
  return 0;
}
