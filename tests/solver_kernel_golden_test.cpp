// Golden bit-identity pin for the revised engine's branch-and-bound.
//
// The revised B&B node kernel is tuned for speed under one hard rule: it
// must perform the same floating-point operations in the same order, so
// every solve returns the same bits.  Node budgets, warm-started cache
// streams, checkpoints and every determinism digest downstream lean on
// that.  This suite folds the complete observable result of a seeded
// corpus of solves — x, the objective's bit pattern, status and
// nodes_explored — into one FNV-1a digest and compares it against a constant captured from the reference
// implementation.  Any change to a reduction order, a tie-break or a
// pivot rule moves the digest.
//
// Corpus:
//   - Phase-1-shaped programs (two capacity rows plus an eligibility
//     mask) at n in {40, 120, 200}, with one row loose (presolves to one
//     active row) or both binding (two active rows), and with continuous
//     or quantized costs (degenerate ties);
//   - ABR multiple-choice programs from abr::build_joint_program (several
//     devices over a five-rung ladder, so m is about 7 after presolve);
//   - each instance solved cold and with two warm incumbents (the drifted
//     predecessor's answer and the cold answer), at max_nodes in
//     {1, 16, 200} (plus an exact gap-0 leg);
//   - the LP engine on its own: cold solves and warm re-solves after a
//     bound change, over LPs with negative rhs and infinite uppers.
//
// When a deliberate numerical change moves the digest, the new constant is
// printed by the failing assertion; updating it is a reviewed decision,
// never a drive-by.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "lpvs/abr/joint.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/common/wire.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/revised_lp.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::solver {
namespace {

/// Digest of the reference implementation's results over the corpus below.
constexpr std::uint64_t kGoldenDigest = 0x017DED0D45791C28ULL;

class Digest {
 public:
  void add_u64(std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    hash_ = common::wire::fnv1a(hash_, bytes, sizeof bytes);
  }
  void add_double(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }
  template <typename T>
  void add_vector(const std::vector<T>& values) {
    add_u64(values.size());
    for (const T& v : values) add_u64(static_cast<std::uint64_t>(v));
  }

  void add(const IlpSolution& s) {
    add_u64(static_cast<std::uint64_t>(s.status));
    add_vector(s.x);
    add_double(s.objective);
    add_u64(static_cast<std::uint64_t>(s.nodes_explored));
  }
  void add(const LpSolution& s) {
    add_u64(static_cast<std::uint64_t>(s.status));
    add_u64(static_cast<std::uint64_t>(s.iterations));
    add_double(s.objective);
    add_u64(s.x.size());
    for (double v : s.x) add_double(v);
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = common::wire::kFnvOffsetBasis;
};

/// A Phase-1-shaped program: objective = gamma * slot energy, compute and
/// storage rows, ~20% of devices ineligible.  `loose_row` >= 0 makes that
/// row slack enough for presolve to drop it.
BinaryProgram phase1_like(common::Rng& rng, std::size_t n, int loose_row,
                          bool quantized) {
  BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(2, std::vector<double>(n));
  p.eligible.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(0.13, 0.49) * rng.uniform(100.0, 1500.0);
    if (quantized) {
      p.rows[0][j] = 0.2 * static_cast<double>(rng.uniform_int(1, 6));
      p.rows[1][j] = 20.0 * static_cast<double>(rng.uniform_int(1, 10));
    } else {
      p.rows[0][j] = rng.uniform(0.2, 1.2);
      p.rows[1][j] = rng.uniform(20.0, 200.0);
    }
    p.eligible[j] = rng.bernoulli(0.8) ? 1 : 0;
  }
  p.rhs.resize(2);
  for (int i = 0; i < 2; ++i) {
    double total = 0.0;
    for (double a : p.rows[static_cast<std::size_t>(i)]) total += a;
    p.rhs[static_cast<std::size_t>(i)] =
        i == loose_row ? total + 1.0 : total * rng.uniform(0.15, 0.45);
  }
  return p;
}

/// Next-slot drift: the same shape with every coefficient nudged.
BinaryProgram drifted(const BinaryProgram& p, common::Rng& rng) {
  BinaryProgram q = p;
  for (auto& c : q.objective) c *= rng.uniform(0.97, 1.03);
  for (auto& row : q.rows) {
    for (auto& a : row) a *= rng.uniform(0.98, 1.02);
  }
  for (auto& b : q.rhs) b *= rng.uniform(0.99, 1.01);
  return q;
}

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

BinaryProgram abr_like(common::Rng& rng) {
  abr::JointSlotProblem problem;
  const auto devices = static_cast<int>(rng.uniform_int(3, 7));
  for (int d = 0; d < devices; ++d) {
    core::DeviceSlotInput device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(d)};
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
    device.gamma = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.13, 0.49);
    device.compute_cost = rng.uniform(0.2, 1.2);
    device.storage_cost = rng.uniform(20.0, 200.0);
    problem.base.devices.push_back(device);
    abr::DeviceStreamState stream;
    stream.buffer_s = rng.uniform(0.0, 60.0);
    stream.throughput_mbps = rng.uniform(1.0, 40.0);
    problem.streams.push_back(stream);
  }
  problem.base.compute_capacity = rng.uniform(0.4, 2.0);
  problem.base.storage_capacity = rng.uniform(60.0, 400.0);
  problem.base.lambda = rng.uniform(500.0, 4000.0);
  if (rng.bernoulli(0.6)) problem.receive_budget_mwh = rng.uniform(5.0, 120.0);
  problem.qoe_weight = rng.uniform(500.0, 5000.0);
  problem.receive_energy_weight = rng.uniform(0.0, 100.0);
  return abr::build_joint_program(problem, anxiety()).program;
}

BranchAndBoundSolver revised_solver(long max_nodes, double gap) {
  BranchAndBoundSolver::Options options;
  options.max_nodes = max_nodes;
  options.relative_gap = gap;
  return BranchAndBoundSolver(options);
}

/// Every leg of one instance: cold and two warm incumbents, at each
/// budget.
void solve_all_legs(const BinaryProgram& previous, const BinaryProgram& p,
                    Digest& digest) {
  struct Leg {
    long max_nodes;
    double gap;
  };
  for (const Leg leg : {Leg{1, 1e-4}, Leg{16, 1e-4}, Leg{200, 1e-4},
                        Leg{200, 0.0}}) {
    const BranchAndBoundSolver bnb = revised_solver(leg.max_nodes, leg.gap);
    const IlpSolution cold = bnb.solve(p);
    digest.add(cold);

    // Warm incumbent: the predecessor's answer (feasible or not — an
    // infeasible one must fall back to the greedy seed).
    const IlpSolution prior = bnb.solve(previous);
    digest.add(bnb.solve(p, prior.x));
    digest.add(bnb.solve(p, cold.x));
  }
}

/// LP-engine corpus: mixed-sign rhs, infinite uppers, degenerate columns.
LpProblem random_lp(common::Rng& rng) {
  LpProblem p;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
  const auto m = static_cast<std::size_t>(rng.uniform_int(0, 6));
  p.objective.resize(n);
  for (auto& c : p.objective) c = rng.uniform(-5.0, 20.0);
  p.rows.assign(m, std::vector<double>(n));
  for (auto& row : p.rows) {
    for (auto& a : row) a = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.1, 8.0);
  }
  p.rhs.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    double total = 0.0;
    for (double a : p.rows[i]) total += a;
    const double roll = rng.uniform();
    p.rhs[i] = roll < 0.1   ? rng.uniform(-3.0, -0.01)
               : roll < 0.2 ? 0.0
                            : total * rng.uniform(0.1, 0.9);
  }
  p.upper.resize(n);
  for (auto& u : p.upper) {
    u = rng.bernoulli(0.05) ? std::numeric_limits<double>::infinity()
                            : rng.uniform(0.5, 3.0);
  }
  return p;
}

TEST(SolverKernelGolden, RevisedResultsAreBitIdentical) {
  Digest digest;
  long solves = 0;

  for (const std::size_t n : {40u, 120u, 200u}) {
    for (const int loose_row : {-1, 0, 1}) {
      for (const bool quantized : {false, true}) {
        for (std::uint64_t seed = 0; seed < 2; ++seed) {
          common::Rng rng(0x601D0000 + n * 100 + seed * 10 +
                          static_cast<std::uint64_t>(loose_row + 1) * 3 +
                          (quantized ? 1 : 0));
          const BinaryProgram previous =
              phase1_like(rng, n, loose_row, quantized);
          const BinaryProgram p = drifted(previous, rng);
          solve_all_legs(previous, p, digest);
          solves += 4 * 4;
        }
      }
    }
  }

  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    common::Rng rng(0xAB20000 + seed);
    const BinaryProgram previous = abr_like(rng);
    const BinaryProgram p = drifted(previous, rng);
    solve_all_legs(previous, p, digest);
    solves += 4 * 4;
  }

  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    common::Rng rng(0x1B0000 + seed);
    const LpProblem p = random_lp(rng);
    RevisedLpSolver engine;
    ASSERT_TRUE(engine.load(p));
    digest.add(engine.solve());
    const SimplexBasis basis = engine.basis();
    if (p.num_vars() > 0) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(p.num_vars()) - 1));
      const double v = rng.bernoulli(0.5) ? 0.0 : 1.0;
      engine.set_bounds(j, v, v);
    }
    digest.add(engine.resolve(basis));
    digest.add_vector(engine.basis().basic);
    digest.add_vector(engine.basis().state);
    engine.reset_bounds();
    digest.add(engine.resolve(basis));
    solves += 3;
  }

  EXPECT_GT(solves, 1000);
  EXPECT_EQ(digest.value(), kGoldenDigest)
      << "revised solve results moved; new digest 0x" << std::hex
      << digest.value();
}

}  // namespace
}  // namespace lpvs::solver
