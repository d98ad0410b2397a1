// emulate_c200: repeated emu::Emulator runs of one 200-device virtual
// cluster with the default config (36 slots), each instance on its own
// seed-derived world, on one thread.  No I/O: media generation, power
// pricing, prefetch, playback and Bayes updates around one capacity-bound
// ILP per slot.
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/emu/emulator.hpp"
#include "lpvs/obs/metrics.hpp"
#include "spans.hpp"
#include "timed_scheduler.hpp"

namespace lpvsbench {
namespace {

namespace core = lpvs::core;
namespace emu = lpvs::emu;
namespace obs = lpvs::obs;

constexpr int kGroupSize = 200;
/// Instances folded into the digest (and always run); instance 0 is run
/// again at the end and must reproduce its RunMetrics.
constexpr std::uint32_t kDigestInstances = 3;
constexpr std::uint64_t kEmuSalt = 0xE3E3;

/// Every deterministic field of RunMetrics, as bit patterns.
/// mean_scheduler_ms is wall-clock time and stays out.
std::uint64_t metrics_digest(const emu::RunMetrics& m) {
  std::uint64_t d = lpvs::common::wire::kFnvOffsetBasis;
  d = fold(d, std::bit_cast<std::uint64_t>(m.total_energy_mwh));
  d = fold(d, std::bit_cast<std::uint64_t>(m.mean_anxiety));
  d = fold(d, static_cast<std::uint64_t>(m.total_selected));
  d = fold(d, static_cast<std::uint64_t>(m.slots_run));
  d = fold(d, static_cast<std::uint64_t>(m.anxiety_samples));
  for (const std::vector<double>* column :
       {&m.tpv_minutes, &m.start_fractions, &m.final_fractions,
        &m.last_gamma_estimate, &m.mean_true_gamma}) {
    for (double v : *column) d = fold(d, std::bit_cast<std::uint64_t>(v));
  }
  for (std::uint8_t served : m.served) d = fold(d, served);
  return d;
}

struct Phase {
  explicit Phase(const Windows& w) : windows(w) {}

  Windows windows;
  // Per window of the run.
  WindowedSeries rtt_us;            ///< schedule() call durations
  WindowedSeries slot_us;           ///< between consecutive calls of one instance
  WindowedSeries slots;             ///< 1 per schedule() call
  WindowedSeries device_decisions;  ///< devices per schedule() call
  WindowedSeries setup_us;          ///< per instance: construction to first call

  long slot_count = 0;
  long instances = 0;
  double wall_s = 0.0;
  double evictions = 0.0;  ///< summed over instances
  std::uint64_t digest = lpvs::common::wire::kFnvOffsetBasis;
  bool replay_matches = false;
  CallTotals calls;     ///< timed instances
  long violations = 0;  ///< replay included
  obs::MetricsSnapshot metrics;
};

Phase run_phase(const Options& opt, double seconds, SpanRecorder* spans) {
  const Clock::time_point start = Clock::now();
  const Windows windows(start, seconds);
  Phase phase{windows};

  // Calls arrive in order on this one thread: the first call of an
  // instance closes its set-up, every later one closes a slot.
  std::uint32_t last_unit = UINT32_MAX;
  Clock::time_point unit_start{};
  Clock::time_point last_call{};
  const auto on_call = [&](const CallRecord& call) {
    if (call.unit == UINT32_MAX) return;  // the replay
    if (call.unit != last_unit) {
      windows.add(phase.setup_us, unit_start, us_between(unit_start, call.start));
      last_unit = call.unit;
    } else {
      windows.add(phase.slot_us, call.start, us_between(last_call, call.start));
    }
    last_call = call.start;
    windows.add(phase.rtt_us, call.start, call.duration_us());
    windows.add(phase.slots, call.start, 1.0);
    windows.add(phase.device_decisions, call.start, call.devices);
  };

  CpuRotation rotation;
  const core::LpvsScheduler lpvs_scheduler;
  TimedScheduler timed(lpvs_scheduler, spans, on_call);
  obs::MetricsRegistry registry;
  const core::RunContext context =
      core::RunContext(anxiety_model())
          .with_metrics(spans != nullptr ? &registry : nullptr);

  // `measured` = a timed instance; the replay records nothing but its
  // digest and its checks.
  const auto run_instance = [&](std::uint32_t index, bool measured) {
    rotation.enter(windows.at(Clock::now()));
    emu::EmulatorConfig config;
    config.group_size = kGroupSize;
    config.seed = derive_seed(opt.seed, kEmuSalt, index);
    timed.set_unit(measured ? index : UINT32_MAX);
    std::uint32_t span = 0;
    if (measured && spans != nullptr) {
      span = spans->reserve();
      spans->set_parent(span);
    }
    unit_start = Clock::now();
    emu::Emulator emulator(config, timed, context);
    const emu::RunMetrics metrics = emulator.run();
    if (measured && spans != nullptr) {
      spans->record(span, 0, "emu.instance", unit_start, Clock::now());
      spans->set_parent(0);
      phase.evictions += registry.gauge("lpvs_edge_cache_evictions").value();
    }
    return metrics;
  };

  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::uint64_t first_digest = 0;
  for (std::uint32_t i = 0; i < kDigestInstances || Clock::now() < deadline;
       ++i) {
    const emu::RunMetrics metrics = run_instance(i, true);
    const std::uint64_t digest = metrics_digest(metrics);
    if (i == 0) first_digest = digest;
    if (i < kDigestInstances) phase.digest = fold(phase.digest, digest);
    phase.slot_count += metrics.slots_run;
    ++phase.instances;
  }
  phase.wall_s = us_between(start, Clock::now()) / 1e6;
  phase.calls = timed.totals();
  if (spans != nullptr) phase.metrics = registry.snapshot();

  phase.replay_matches =
      metrics_digest(run_instance(0, false)) == first_digest;
  phase.violations = timed.totals().violations;
  return phase;
}

}  // namespace

WorkloadResult run_emulate(const Options& opt) {
  WorkloadResult result;
  result.meta["threads"] = "1";
  result.meta["group_size"] = std::to_string(kGroupSize);
  result.meta["cpu_pinning"] = "one cpu per window, rotating";

  SpanRecorder spans;
  const Phase untraced =
      run_phase(opt, opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
  if (!opt.trace) {
    result.digest = untraced.digest;
    result.attempted = untraced.calls.calls;
    result.failed = untraced.violations + (untraced.replay_matches ? 0 : 1);
    result.correct = result.failed == 0;
    result.meta["instances"] = std::to_string(untraced.instances);
    auto& m = result.metrics;
    m["rtt_p50_us"] = untraced.rtt_us.quantile(0.50);
    m["rtt_p99_us"] = untraced.rtt_us.quantile(0.99);
    m["slot_p50_us"] = untraced.slot_us.quantile(0.50);
    m["slot_p99_us"] = untraced.slot_us.quantile(0.99);
    const double window_s = untraced.windows.seconds();
    m["viewer_slots_per_s"] = untraced.device_decisions.rate(window_s);
    m["slots_per_s"] = untraced.slots.rate(window_s);
    m["setup_s"] = untraced.setup_us.quantile(0.5) / 1e6;
    m["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const Phase traced = run_phase(opt, opt.seconds / 2, &spans);
  result.digest = untraced.digest;
  result.attempted = traced.calls.calls;
  result.failed = traced.violations + untraced.violations +
                  (traced.replay_matches ? 0 : 1) +
                  (untraced.replay_matches ? 0 : 1);
  result.correct = result.failed == 0 && traced.digest == untraced.digest;
  result.meta["instances"] = std::to_string(traced.instances);

  auto& m = result.metrics;
  add_core_and_solver_metrics(traced.calls, traced.metrics, traced.wall_s, m);
  const auto slots = static_cast<double>(traced.slot_count);
  m["emu.self_us_per_slot"] = ratio(spans.layer("emu.instance").self_us, slots);
  m["emu.bayes_updates_per_slot"] = ratio(
      static_cast<double>(traced.metrics.counter_value("lpvs_emu_bayes_updates_total")),
      static_cast<double>(traced.metrics.counter_value("lpvs_emu_slots_total")));
  m["emu.cache_evictions"] =
      ratio(traced.evictions, static_cast<double>(traced.instances));
  m["emu.instances"] = static_cast<double>(traced.instances);
  finish_traced(opt, spans, traced.wall_s / slots,
                untraced.wall_s / static_cast<double>(untraced.slot_count),
                result);
  return result;
}

}  // namespace lpvsbench
