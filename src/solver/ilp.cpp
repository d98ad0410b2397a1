#include "lpvs/solver/ilp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "lpvs/solver/presolve.hpp"
#include "lpvs/solver/revised_lp.hpp"

namespace lpvs::solver {
namespace {

/// Fixed-width slots recycled through a free list: the revised search's
/// per-node fixings and parent bases live here, so once the pool has
/// grown to the frontier's size the node loop allocates nothing.
template <typename T>
class SlotPool {
 public:
  explicit SlotPool(std::size_t width) : width_(width) {}

  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    data_.resize(data_.size() + width_);
    return slots_++;
  }
  void release(std::uint32_t slot) { free_.push_back(slot); }
  /// Valid until the next acquire() (which may grow the storage).
  T* at(std::uint32_t slot) { return data_.data() + slot * width_; }

 private:
  std::size_t width_;
  std::vector<T> data_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slots_ = 0;
};

/// Parent-basis snapshots shared by both children of a node: one slot per
/// branched node, released when the second child has re-solved from it.
class BasisPool {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  BasisPool(std::size_t rows, std::size_t vars) : basic_(rows), state_(vars) {}

  std::uint32_t store(const RevisedLpSolver& engine) {
    const std::uint32_t slot = basic_.acquire();
    // The two pools grow and recycle in lockstep, so slots coincide.
    [[maybe_unused]] const std::uint32_t twin = state_.acquire();
    assert(twin == slot);
    if (slot >= refs_.size()) refs_.resize(slot + 1);
    refs_[slot] = 2;
    std::copy(engine.basic_vars().begin(), engine.basic_vars().end(),
              basic_.at(slot));
    std::copy(engine.var_states().begin(), engine.var_states().end(),
              state_.at(slot));
    return slot;
  }
  void release(std::uint32_t slot) {
    if (slot == kNone || --refs_[slot] > 0) return;
    basic_.release(slot);
    state_.release(slot);
  }
  const std::uint32_t* basic(std::uint32_t slot) { return basic_.at(slot); }
  const std::uint8_t* state(std::uint32_t slot) { return state_.at(slot); }

 private:
  SlotPool<std::uint32_t> basic_;
  SlotPool<std::uint8_t> state_;
  std::vector<int> refs_;
};

}  // namespace

bool BinaryProgram::feasible(const std::vector<int>& x, double tol) const {
  assert(x.size() == num_vars());
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] != 0 && !is_eligible(j)) return false;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (x[j]) lhs += rows[i][j];
    }
    if (lhs > rhs[i] + tol) return false;
  }
  return true;
}

double BinaryProgram::value(const std::vector<int>& x) const {
  double total = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j]) total += objective[j];
  }
  return total;
}

std::string to_string(IlpStatus status) {
  switch (status) {
    case IlpStatus::kOptimal:
      return "optimal";
    case IlpStatus::kFeasible:
      return "feasible";
    case IlpStatus::kInfeasible:
      return "infeasible";
    case IlpStatus::kMalformed:
      return "malformed";
  }
  return "unknown";
}

common::Status to_status(IlpStatus status) {
  switch (status) {
    case IlpStatus::kOptimal:
    case IlpStatus::kFeasible:
      return common::Status::Ok();
    case IlpStatus::kInfeasible:
      return common::Status::Infeasible("no 0/1 point satisfies the rows");
    case IlpStatus::kMalformed:
      return common::Status::InvalidArgument("malformed binary program");
  }
  return common::Status::Internal("unknown ilp status");
}

IlpSolution GreedySolver::solve(const BinaryProgram& problem) const {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.rows.size();
  IlpSolution solution;
  solution.x.assign(n, 0);

  // Density = value / sum of capacity-normalized costs.
  std::vector<double> density(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (!problem.is_eligible(j) || problem.objective[j] <= 0.0) {
      density[j] = -1.0;
      continue;
    }
    double normalized_cost = 1e-12;
    for (std::size_t i = 0; i < m; ++i) {
      if (problem.rhs[i] > 0.0) {
        normalized_cost += problem.rows[i][j] / problem.rhs[i];
      } else if (problem.rows[i][j] > 0.0) {
        normalized_cost = std::numeric_limits<double>::infinity();
      }
    }
    density[j] = problem.objective[j] / normalized_cost;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return density[a] > density[b];
  });

  std::vector<double> used(m, 0.0);
  for (std::size_t j : order) {
    if (density[j] < 0.0) continue;
    bool fits = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i] + problem.rows[i][j] > problem.rhs[i] + 1e-9) {
        fits = false;
        break;
      }
    }
    if (!fits) continue;
    solution.x[j] = 1;
    for (std::size_t i = 0; i < m; ++i) used[i] += problem.rows[i][j];
  }
  solution.objective = problem.value(solution.x);
  // Greedy only ever adds items that fit, so the one way the result can be
  // infeasible is a negative rhs rejecting even the all-zeros point.
  solution.status = problem.feasible(solution.x) ? IlpStatus::kFeasible
                                                 : IlpStatus::kInfeasible;
  return solution;
}

IlpSolution BranchAndBoundSolver::solve(const BinaryProgram& problem) const {
  return search(problem, nullptr);
}

IlpSolution BranchAndBoundSolver::solve(
    const BinaryProgram& problem, const std::vector<int>& incumbent) const {
  return search(problem, &incumbent);
}

IlpSolution BranchAndBoundSolver::search(
    const BinaryProgram& problem, const std::vector<int>* incumbent) const {
  const std::size_t n = problem.num_vars();
  const double tol = options_.tolerance;
  IlpSolution out;

  PresolveResult pre = presolve_binary_program(problem, tol);
  if (pre.malformed) {
    out.status = IlpStatus::kMalformed;
    return out;
  }
  if (pre.infeasible) {
    // Some rhs < -tol: even the all-zeros point violates a row.  Report it
    // immediately — in particular a budget-truncated solve must say
    // kInfeasible here, never hand back a stale incumbent.
    out.status = IlpStatus::kInfeasible;
    out.x.assign(n, 0);
    out.nodes_explored = 0;
    return out;
  }

  // The incumbent lives in presolved space (pn variables).  The search
  // runs on `red`: the presolved program until the root fixes variables by
  // reduced cost, then `fix`'s compaction of it (rn free variables).
  const std::size_t pn = pre.reduced.num_vars();
  const std::size_t rm = pre.reduced.rows.size();
  const BinaryProgram* red = &pre.reduced;
  std::size_t rn = pn;
  PresolveResult fix;

  if (pn == 0) {
    // Presolve decided everything.
    out.x = expand_solution(pre, {});
    out.objective = problem.value(out.x);
    out.nodes_explored = 0;
    out.status = problem.feasible(out.x) ? IlpStatus::kOptimal
                                         : IlpStatus::kInfeasible;
    return out;
  }

  // Incumbent seeding in reduced space.  A feasible full-space incumbent
  // projects to a reduced-feasible point (fixed-to-one variables have zero
  // coefficients on every active row), and the projection never loses
  // objective: fix-0 strips only non-positive or infeasible entries and
  // fix-1 only adds profitable ones.
  IlpSolution best_r;
  bool seeded = false;
  if (incumbent != nullptr && incumbent->size() == n &&
      problem.feasible(*incumbent)) {
    std::vector<int> projected(pn, 0);
    for (std::size_t r = 0; r < pn; ++r) {
      projected[r] = (*incumbent)[pre.var_map[r]];
    }
    if (red->feasible(projected)) {
      best_r.x = std::move(projected);
      best_r.objective = red->value(best_r.x);
      best_r.status = IlpStatus::kFeasible;
      seeded = true;
    }
  }
  if (!seeded) best_r = GreedySolver().solve(*red);

  // The relaxation engine holds the search program once; branch fixings
  // are bound overrides, never a rebuild.  Rounding reads a column-major
  // copy of its rows (one variable's coefficients at a time).
  LpProblem lp;
  RevisedLpSolver engine;
  std::vector<double> columns;
  auto load_search_program = [&] {
    lp.objective = red->objective;
    lp.rows = red->rows;
    lp.rhs = red->rhs;
    lp.upper.assign(rn, 1.0);
    columns.resize(rn * rm);
    for (std::size_t i = 0; i < rm; ++i) {
      for (std::size_t j = 0; j < rn; ++j) {
        columns[j * rm + i] = red->rows[i][j];
      }
    }
    return engine.load(lp);
  };
  if (!load_search_program()) {
    out.status = IlpStatus::kMalformed;
    return out;
  }

  // LP-guided rounding over the search space, on buffers reused across
  // nodes: take the variables at one, then greedily pack the fractional
  // ones by LP value.  It runs at every node so the incumbent tracks the
  // bound closely and pruning stays effective.  The rounded point is kept
  // as the index-ordered list of variables it takes; its value counts the
  // variables the root fixed to one.
  std::vector<double> used(rm);
  std::vector<std::uint32_t> taken(rn);
  std::vector<std::pair<double, std::size_t>> rest;
  rest.reserve(rm);
  std::vector<int> candidate(rn);
  auto try_round = [&](const signed char* fixing,
                       const std::vector<double>& lp_x) {
    std::fill(used.begin(), used.end(), 0.0);
    auto fits = [&](std::size_t j) {
      for (std::size_t i = 0; i < rm; ++i) {
        if (used[i] + columns[j * rm + i] > red->rhs[i] + 1e-9) return false;
      }
      return true;
    };
    auto take = [&](std::size_t j) {
      for (std::size_t i = 0; i < rm; ++i) used[i] += columns[j * rm + i];
    };
    // Variables at one, in index order (listed branch-free): fixed to one
    // by the node (feasible by construction), or free with lp_x near one.
    std::size_t ones = 0;
    for (std::size_t j = 0; j < rn; ++j) {
      taken[ones] = static_cast<std::uint32_t>(j);
      ones += (fixing[j] == 1) | ((fixing[j] == -1) & (lp_x[j] > 1.0 - 1e-6));
    }
    std::size_t count = 0;
    for (std::size_t k = 0; k < ones; ++k) {
      const std::size_t j = taken[k];
      const bool took = fixing[j] == 1 || fits(j);
      if (took) take(j);
      taken[count] = static_cast<std::uint32_t>(j);
      count += took;
    }
    // The free fractional ones, by LP value.  Nonbasic variables sit on
    // their 0/1 bounds, so only basic ones can be fractional; they are
    // listed in index order first, so the sort sees the same input
    // sequence as a full index scan would give it.
    rest.clear();
    for (const std::uint32_t j : engine.basic_vars()) {
      if (j < rn && fixing[j] == -1 && !(lp_x[j] > 1.0 - 1e-6) &&
          lp_x[j] > 1e-9 && red->objective[j] > 0.0) {
        rest.emplace_back(lp_x[j] * red->objective[j], j);
      }
    }
    std::sort(rest.begin(), rest.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    std::sort(rest.begin(), rest.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [score, j] : rest) {
      if (!fits(j)) continue;
      take(j);
      const auto end = taken.begin() + static_cast<std::ptrdiff_t>(count);
      const auto at = std::upper_bound(taken.begin(), end, j);
      std::copy_backward(at, end, end + 1);
      *at = static_cast<std::uint32_t>(j);
      ++count;
    }
    // The presolved value of the rounded point: the fixed-to-one objective
    // (0 before the root fixes anything), then the taken entries in index
    // order, the same additions as a full scan (which adds nothing for the
    // variables left at zero).
    double value = fix.fixed_objective;
    for (std::size_t k = 0; k < count; ++k) value += red->objective[taken[k]];
    if (!(value > best_r.objective + tol)) return;
    std::fill(candidate.begin(), candidate.end(), 0);
    for (std::size_t k = 0; k < count; ++k) candidate[taken[k]] = 1;
    if (red->feasible(candidate)) {
      best_r.objective = value;
      best_r.x =
          fix.fixed.empty() ? candidate : expand_solution(fix, candidate);
    }
  };

  // Best-first node heap: highest parent bound first, FIFO (sequence
  // number) among ties so exploration order — and with it the node count —
  // is a pure function of the input.  Entries name pooled slots: the
  // node's fixing and the parent basis it re-solves from.
  struct HeapNode {
    double bound;
    std::uint64_t seq;
    std::uint32_t fixing;
    std::uint32_t parent_basis;
  };
  auto heap_before = [](const HeapNode& a, const HeapNode& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.seq > b.seq;  // max-heap: lower seq pops first on bound ties
  };
  SlotPool<signed char> fixings(rn);
  BasisPool bases(rm, rn + rm);
  std::vector<HeapNode> heap;
  std::uint64_t next_seq = 0;
  // Pushes a root node: every search variable free, solved from
  // `root_from` (cold until reduced-cost fixing carries a basis over).
  const SimplexBasis* root_from = nullptr;
  auto push_root = [&](double bound) {
    const std::uint32_t slot = fixings.acquire();
    std::fill_n(fixings.at(slot), rn, static_cast<signed char>(-1));
    heap.push_back(HeapNode{bound, next_seq++, slot, BasisPool::kNone});
  };
  push_root(std::numeric_limits<double>::infinity());

  long nodes = 0;
  long pivots = 0;
  bool exhausted_within_limit = true;
  bool root = true;

  // Reduced-cost fixing, once, at a root that would branch.  With duals y
  // and reduced costs d, every 0/1 point has value at most
  // bound + d_j x_j (j at lower) and bound - d_j (1 - x_j) (j at upper),
  // so a nonbasic variable whose move off its bound cannot lift the bound
  // past the incumbent by more than the prune margin is fixed where it
  // sits: exactly what the gap rule would prune below it.  The survivors
  // are compacted into the search program, the engine reloads it, and the
  // root basis carries over (basic variables are never fixed; the
  // nonbasic states map across).  Returns false when nothing was fixed.
  SimplexBasis carried;
  auto fix_at_root = [&](double bound) {
    const double cutoff =
        best_r.objective +
        std::max(tol, options_.relative_gap * std::fabs(best_r.objective));
    if (!(bound > cutoff)) return false;  // the children would be stale
    constexpr std::uint8_t kAtUpper = 1;  // SimplexBasis::state values
    constexpr std::uint8_t kBasic = 2;
    const std::vector<std::uint8_t>& state = engine.var_states();
    std::vector<signed char> fixed(rn, -1);
    bool any = false;
    for (std::size_t j = 0; j < rn; ++j) {
      if (state[j] == kBasic) continue;  // d_j = 0
      const double d = engine.reduced_cost(j);
      const bool at_upper = state[j] == kAtUpper;
      if ((at_upper ? bound - d : bound + d) <= cutoff) {
        fixed[j] = at_upper ? 1 : 0;
        any = true;
      }
    }
    if (!any) return false;

    fix = fix_variables(std::move(pre.reduced), std::move(fixed), tol);
    red = &fix.reduced;
    rn = red->num_vars();
    // Root basis in compacted indices; a basic variable that domination
    // fixed after all leaves it empty, and the root re-solves cold.
    carried.basic.resize(rm);
    carried.state.resize(rn + rm);
    for (std::size_t r = 0; r < rn; ++r) {
      carried.state[r] = state[fix.var_map[r]];
    }
    std::copy_n(state.begin() + static_cast<std::ptrdiff_t>(pn), rm,
                carried.state.begin() + static_cast<std::ptrdiff_t>(rn));
    for (std::size_t i = 0; i < rm; ++i) {
      const std::uint32_t b = engine.basic_vars()[i];
      if (b >= pn) {
        carried.basic[i] = static_cast<std::uint32_t>(rn + (b - pn));
      } else if (fix.fixed[b] == -1) {
        carried.basic[i] = static_cast<std::uint32_t>(
            std::lower_bound(fix.var_map.begin(), fix.var_map.end(), b) -
            fix.var_map.begin());
      } else {
        carried = SimplexBasis{};
        break;
      }
    }
    load_search_program();
    candidate.resize(rn);
    fixings = SlotPool<signed char>(rn);
    bases = BasisPool(rm, rn + rm);
    root_from = &carried;
    out.root_fixed = static_cast<long>(pn - rn);
    return true;
  };

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_before);
    const HeapNode node = heap.back();
    heap.pop_back();

    const double prune_margin =
        std::max(tol, options_.relative_gap * std::fabs(best_r.objective));
    if (node.bound <= best_r.objective + prune_margin) {
      // Stale: incumbent moved past it while queued (not counted).
      fixings.release(node.fixing);
      bases.release(node.parent_basis);
      continue;
    }
    if (nodes >= options_.max_nodes) {
      exhausted_within_limit = false;
      break;
    }
    ++nodes;

    engine.set_fixings(fixings.at(node.fixing));
    RevisedLpSolver::Result relaxed;
    if (node.parent_basis != BasisPool::kNone) {
      relaxed = engine.resolve_trusted(bases.basic(node.parent_basis),
                                       bases.state(node.parent_basis));
      bases.release(node.parent_basis);
    } else if (root_from != nullptr) {
      relaxed = engine.resolve_in_place(*root_from);
    } else {
      relaxed = engine.solve_in_place();
    }
    pivots += relaxed.iterations;
    const double bound = relaxed.objective + fix.fixed_objective;
    if (!relaxed.optimal() ||  // infeasible/limit: prune (counted)
        bound <= best_r.objective + prune_margin) {
      fixings.release(node.fixing);
      continue;
    }

    const std::vector<double>& lp_x = engine.x();
    try_round(fixings.at(node.fixing), lp_x);

    // Most fractional variable, lowest index on ties.  Nonbasic variables
    // sit exactly on 0/1 bounds, so only the basic ones can be fractional.
    std::ptrdiff_t branch_var = -1;
    if (bound > best_r.objective + prune_margin) {
      const signed char* fixing = fixings.at(node.fixing);
      double best_fractionality = tol;
      for (const std::uint32_t j : engine.basic_vars()) {
        if (j >= rn || fixing[j] != -1) continue;
        const double frac = std::fabs(lp_x[j] - std::round(lp_x[j]));
        if (frac > best_fractionality ||
            (frac == best_fractionality &&
             static_cast<std::ptrdiff_t>(j) < branch_var)) {
          best_fractionality = frac;
          branch_var = static_cast<std::ptrdiff_t>(j);
        }
      }
    }
    if (branch_var < 0) {
      // Pruned after rounding, or integral (try_round recorded it).
      fixings.release(node.fixing);
      continue;
    }
    if (root) {
      root = false;
      if (fix_at_root(bound)) {
        // The compacted program's re-solve from the carried basis is the
        // rest of this root node, not a node of its own.
        --nodes;
        push_root(bound);
        continue;
      }
    }

    // Children inherit this node's optimal basis — one refactorization and
    // typically a couple of dual pivots each instead of a cold solve.  The
    // down child takes over the parent's fixing slot.
    const std::uint32_t basis = bases.store(engine);
    const std::uint32_t up_fixing = fixings.acquire();
    const auto bv = static_cast<std::size_t>(branch_var);
    std::copy_n(fixings.at(node.fixing), rn, fixings.at(up_fixing));
    fixings.at(up_fixing)[bv] = 1;
    fixings.at(node.fixing)[bv] = 0;
    heap.push_back(HeapNode{bound, next_seq++, up_fixing, basis});
    std::push_heap(heap.begin(), heap.end(), heap_before);
    heap.push_back(HeapNode{bound, next_seq++, node.fixing, basis});
    std::push_heap(heap.begin(), heap.end(), heap_before);
  }

  out.x = expand_solution(pre, best_r.x);
  out.objective = problem.value(out.x);
  out.nodes_explored = nodes;
  out.lp_pivots = pivots;
  if (!problem.feasible(out.x)) {
    // Only reachable in the rhs-within-tolerance gray zone where presolve
    // accepts a row that feasible() rejects.
    out.status = IlpStatus::kInfeasible;
  } else {
    out.status =
        exhausted_within_limit ? IlpStatus::kOptimal : IlpStatus::kFeasible;
  }
  return out;
}

}  // namespace lpvs::solver
