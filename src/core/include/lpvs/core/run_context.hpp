// RunContext: the per-run environment threaded through the scheduling and
// emulation hot paths (API redesign).
//
// Before this existed every layer took the anxiety model as a bare
// argument, and every new cross-cutting concern (metrics, tracing, solve
// caching, fault injection, deadlines) threatened to multiply method
// signatures.  RunContext bundles the anxiety model with *optional*
// capabilities; a default-constructed (or capability-less) context is the
// disabled state, and every instrumentation site guards on the null
// pointers, so un-instrumented runs pay one branch per site.
//
// New knobs are attached with the fluent builder instead of new overloads:
//
//   RunContext(anxiety)
//       .with_metrics(&registry)
//       .with_trace(&trace)
//       .with_fault_injector(&chaos)
//       .with_deadline(SlotDeadline{.budget_ms = 250.0});
//
// Contracts:
//   - Observability is purely observational: attaching a registry or trace
//     must never change schedules, RunMetrics, or any other computed
//     result (tests/obs_test.cpp asserts a paired on/off run is identical).
//   - Fault injection is zero-cost when disabled: a null injector — or an
//     attached injector whose probabilities are all zero — leaves every
//     computed result bit-identical to the pre-fault-layer pipeline
//     (tests/fault_test.cpp asserts it).
#pragma once

#include <cassert>

#include <cstdint>

#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/obs/event_trace.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::solver {
class SolveCache;
}  // namespace lpvs::solver

namespace lpvs::core {

/// Per-slot scheduling deadline.  The scheduler must hand back *some*
/// feasible schedule inside the budget; when the budget is blown (for
/// real, or via injected kSolverBudget overruns) it walks the degradation
/// ladder (scheduler.hpp) instead of overrunning the slot boundary.
struct SlotDeadline {
  /// Wall budget for one slot's schedule, milliseconds; 0 = no deadline.
  double budget_ms = 0.0;
  /// Operational override: pin the ladder to one rung (0..3) regardless of
  /// budget or faults; -1 = pick normally.  The kill switch for a
  /// misbehaving solver in production, and the deterministic handle the
  /// ladder tests use.
  int force_rung = -1;

  bool enabled() const { return budget_ms > 0.0 || force_rung >= 0; }
};

struct RunContext {
  /// The LBA anxiety model phi; required by every scheduler.
  const survey::AnxietyModel* anxiety = nullptr;
  /// Optional metric sink (counters / gauges / histograms); null = off.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional structured event sink; null = off.
  obs::EventTrace* events = nullptr;
  /// Optional warm-start cache for the ILP-backed schedulers; null = every
  /// solve starts cold.  Unlike the observability sinks, a cache is allowed
  /// to change *which* optimal assignment ties resolve to and how many
  /// nodes the search visits — never the objective value achieved (the
  /// differential tests enforce that).
  solver::SolveCache* solve_cache = nullptr;
  /// Identifies the problem stream within the cache (one key per virtual
  /// cluster); consecutive solves under the same key warm-start each other.
  std::uint64_t solve_key = 0;
  /// Optional fault injector; null (or all probabilities zero) = the
  /// happy-path pipeline, bit-identical to a build without the fault layer.
  const fault::FaultInjector* faults = nullptr;
  /// Per-slot scheduling deadline; disabled by default.
  SlotDeadline deadline{};
  /// The slot index this context is scheduling (fault-decision keys and
  /// trace attribution); -1 when the caller is not slot-driven.
  std::int64_t slot = -1;

  RunContext() = default;
  RunContext(const survey::AnxietyModel& anxiety_model,
             obs::MetricsRegistry* registry = nullptr,
             obs::EventTrace* sink = nullptr)
      : anxiety(&anxiety_model), metrics(registry), events(sink) {}

  const survey::AnxietyModel& anxiety_model() const {
    assert(anxiety != nullptr);
    return *anxiety;
  }
  bool observed() const { return metrics != nullptr || events != nullptr; }
  /// True when fault decisions can actually fire; sites guard on this so a
  /// disabled injector costs one branch.
  bool faults_active() const {
    return faults != nullptr && faults->enabled();
  }

  // --- Fluent builder: each returns a bound copy, so a base context can
  // --- be specialized per shard/slot without mutating the original.
  RunContext with_metrics(obs::MetricsRegistry* registry) const {
    RunContext bound = *this;
    bound.metrics = registry;
    return bound;
  }
  RunContext with_trace(obs::EventTrace* sink) const {
    RunContext bound = *this;
    bound.events = sink;
    return bound;
  }
  /// Copy of this context bound to a solve cache and stream key; the
  /// emulator, the federation and the daemon hand each cluster its own
  /// keyed view.
  RunContext with_solve_cache(solver::SolveCache* cache,
                              std::uint64_t key) const {
    RunContext bound = *this;
    bound.solve_cache = cache;
    bound.solve_key = key;
    return bound;
  }
  RunContext with_fault_injector(const fault::FaultInjector* injector) const {
    RunContext bound = *this;
    bound.faults = injector;
    return bound;
  }
  RunContext with_deadline(SlotDeadline slot_deadline) const {
    RunContext bound = *this;
    bound.deadline = slot_deadline;
    return bound;
  }
  RunContext with_slot(std::int64_t slot_index) const {
    RunContext bound = *this;
    bound.slot = slot_index;
    return bound;
  }
};

}  // namespace lpvs::core
