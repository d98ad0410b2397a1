// Timing decorator around a core::Scheduler.
//
// The daemon, the emulator and the federation all take a
// `const core::Scheduler&`, so wrapping the production LpvsScheduler in
// this decorator measures every schedule() call from outside, with no
// change to the program.  Each call is timed, checked against constraints
// (6)/(7) of the problem it was given, and its objective (13) and energy
// totals are summed; with a span recorder attached it also records one
// span per call.  Calls may arrive from several threads at once (the
// federation's pool), so the totals are guarded by a mutex.  Everything is
// aggregated as it arrives: the benchmark's own memory stays flat however
// long it runs, so it does not pollute the peak RSS it reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "bench.hpp"
#include "lpvs/core/scheduler.hpp"
#include "spans.hpp"

namespace lpvsbench {

struct CallRecord {
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t unit = 0;  ///< the workload unit the call belongs to
  int devices = 0;
  int selected = 0;
  int eligible = 0;  ///< counted only with a span recorder attached
  int phase2_swaps = 0;
  bool degraded = false;  ///< landed below DegradationRung::kFullSolve
  bool violation = false;

  double duration_us() const { return us_between(start, end); }
};

/// Sums over every call and every Schedule the decorator saw.
struct CallTotals {
  long calls = 0;
  long violations = 0;
  double busy_us = 0.0;
  double devices = 0.0;
  double eligible = 0.0;
  double selected = 0.0;
  double phase2_swaps = 0.0;
  double degraded = 0.0;
  double objective = 0.0;
  double baseline_objective = 0.0;
  double energy_mwh = 0.0;
  double baseline_energy_mwh = 0.0;
  double duration_p50_us = 0.0;
  double duration_p99_us = 0.0;
};

class TimedScheduler : public lpvs::core::Scheduler {
 public:
  /// Sees every call's record, under the decorator's lock (so calls from
  /// several threads reach it one at a time).
  using CallSink = std::function<void(const CallRecord&)>;

  /// `inner` and `spans` (null = untraced) must outlive the decorator.
  TimedScheduler(const lpvs::core::Scheduler& inner, SpanRecorder* spans,
                 CallSink sink = nullptr)
      : inner_(inner), spans_(spans), sink_(std::move(sink)) {}

  std::string name() const override { return inner_.name(); }
  lpvs::core::Schedule schedule(
      const lpvs::core::SlotProblem& problem,
      const lpvs::core::RunContext& context) const override;

  /// Tags the calls that follow with a workload unit index.
  void set_unit(std::uint32_t unit) { unit_.store(unit); }

  CallTotals totals() const;

 private:
  const lpvs::core::Scheduler& inner_;
  SpanRecorder* spans_;
  CallSink sink_;
  std::atomic<std::uint32_t> unit_{0};
  mutable std::mutex mutex_;
  mutable CallTotals totals_;  // guarded by mutex_
  mutable lpvs::obs::Histogram durations_us_{fine_buckets(1e-2, 1e8)};
};

/// True when `schedule` is a 0/1 vector over the problem's devices whose
/// transformed set fits the compute row (6) and the storage row (7).
bool satisfies_capacity_rows(const lpvs::core::SlotProblem& problem,
                             const lpvs::core::Schedule& schedule);

/// The core.* per-layer metrics from the decorator's totals (`wall_s` is
/// the wall time the calls fell in), and the solver.* ones from the
/// registry the scheduler wrote into.
void add_core_and_solver_metrics(const CallTotals& totals,
                                 const lpvs::obs::MetricsSnapshot& snapshot,
                                 double wall_s,
                                 std::map<std::string, double>& out);

/// Mean of a registry histogram (its exact sum over its count); 0 when the
/// histogram is absent or empty.  Bucket quantiles are not used.
double histogram_mean(const lpvs::obs::MetricsSnapshot& snapshot,
                      const char* name);

}  // namespace lpvsbench
