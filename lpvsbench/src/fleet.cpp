// fleet_day: one simulated day (1440 one-minute slots) of fleet::Federation
// per unit, with the diurnal telemetry-soak configuration: a sinusoidal
// arrival curve (peak raised to 6 arrivals per slot, no user cap),
// autoscaling between 2 and 10 servers, 0.4% server crashes and 10%
// handoff loss, served by 2 federation threads.  Days repeat, each on its
// own seed-derived trace and config, until the time is up.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fleet/federation.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/trace/trace.hpp"
#include "spans.hpp"
#include "timed_scheduler.hpp"

namespace lpvsbench {
namespace {

namespace core = lpvs::core;
namespace fault = lpvs::fault;
namespace fleet = lpvs::fleet;
namespace obs = lpvs::obs;
namespace trace = lpvs::trace;

constexpr int kDaySlots = 1440;
constexpr unsigned kThreads = 2;
/// Set-ups timed (and discarded) before each day runs.
constexpr int kSetupRepsPerDay = 3;
constexpr std::uint64_t kTraceSalt = 0x7ACE;
constexpr std::uint64_t kFleetSalt = 0xF1EE;
constexpr std::uint64_t kFaultSalt = 0xFA17;

trace::Trace day_trace(std::uint64_t seed, std::uint32_t day) {
  trace::TraceConfig config;
  // Ten times the soak's trace, so every seed has live sessions at the
  // start slot to seed the audience and the arrival pool.
  config.channel_count = 480;
  config.session_count = 2600;
  config.horizon_slots = kDaySlots + 64;
  config.max_duration_slots = 600;
  config.duration_log_mean = 5.8;
  return trace::TwitchLikeGenerator(config).generate(
      derive_seed(seed, kTraceSalt, day));
}

fleet::FederationConfig day_config(std::uint64_t seed, std::uint32_t day) {
  fleet::FederationConfig config;
  config.seed = derive_seed(seed, kFleetSalt, day);
  config.servers = 2;
  config.users = 16;
  config.min_viewers = 1;
  config.start_slot = 16;
  config.slots = kDaySlots;
  config.chunks_per_slot = 6;
  config.initial_battery_mean = 0.85;
  config.initial_battery_std = 0.08;
  config.mobility_rate = 0.01;
  // Fresh checkpoints every slot.  The soak's stale interval (4) lets a
  // failover restore sessions of users that have since been handed off,
  // so one user is served by two servers at once and the two pool threads
  // race on it: the state digest then differs from run to run.
  config.checkpoint_interval = 1;
  config.threads = kThreads;
  config.slot_seconds = 60.0;

  config.diurnal.enabled = true;
  config.diurnal.base_arrivals_per_slot = 0.05;
  config.diurnal.peak_arrivals_per_slot = 6.0;
  config.diurnal.period_slots = kDaySlots;
  config.diurnal.peak_phase = 0.5;
  config.diurnal.min_lifetime_slots = 45;
  config.diurnal.max_lifetime_slots = 220;
  config.diurnal.max_users = 0;

  config.autoscale.enabled = true;
  config.autoscale.interval_slots = 15;
  config.autoscale.cooldown_slots = 30;
  config.autoscale.min_servers = 2;
  config.autoscale.max_servers = 10;
  config.autoscale.target_sessions_per_server = 10.0;
  return config;
}

fault::FaultInjector::Config day_faults(std::uint64_t seed, std::uint32_t day) {
  fault::FaultInjector::Config config;
  config.seed = derive_seed(seed, kFaultSalt, day);
  config.site(fault::FaultSite::kServerCrash).drop = 0.004;
  config.site(fault::FaultSite::kHandoffTransfer).drop = 0.10;
  return config;
}

/// The windows of fleet_day are its days, not equal stretches of time: a
/// day's slots follow the diurnal curve, so a time window would hold a
/// different part of the curve from run to run and its tail would follow
/// the peak, not the program.
struct Phase {
  // Per simulated day.
  WindowedSeries rtt_us;            ///< schedule() call durations
  WindowedSeries slot_us;           ///< between consecutive slot_hook calls
  WindowedSeries slots;             ///< 1 per slot_hook call
  WindowedSeries device_decisions;  ///< devices per schedule() call
  WindowedSeries day_s;             ///< the day's wall time
  WindowedSeries setup_us;          ///< trace generation + Federation constructor

  long days = 0;
  long slot_count = 0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;  ///< day 0's FederationReport::state_digest
  bool replay_matches = false;  ///< day 0 run again reproduced the digest
  fleet::FederationReport totals;  ///< counters summed over the days
  double peak_servers = 0.0;       ///< summed over the days
  double checkpoint_bytes = 0.0;   ///< summed over the days
  CallTotals calls;                ///< timed days
  long violations = 0;             ///< replay included
  obs::MetricsSnapshot metrics;
};

Phase run_phase(const Options& opt, double seconds, SpanRecorder* spans) {
  const core::LpvsScheduler lpvs_scheduler;
  const Clock::time_point start = Clock::now();
  Phase phase;
  bool replaying = false;
  const auto on_call = [&](const CallRecord& call) {
    if (replaying) return;
    phase.rtt_us.add(call.unit, call.duration_us());
    phase.device_decisions.add(call.unit, call.devices);
  };
  TimedScheduler timed(lpvs_scheduler, spans, on_call);
  obs::MetricsRegistry registry;

  // `measured` = a timed day; the replay of day 0 records nothing but its
  // digest and its checks.
  const auto run_day = [&](std::uint32_t day, bool measured) {
    for (int rep = 0; measured && rep < kSetupRepsPerDay; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const trace::Trace twitch = day_trace(opt.seed, day);
      const fault::FaultInjector injector(day_faults(opt.seed, day));
      const fleet::Federation federation(
          day_config(opt.seed, day), twitch, lpvs_scheduler,
          core::RunContext(anxiety_model()).with_fault_injector(&injector));
      phase.setup_us.add(day, us_between(t0, Clock::now()));
    }
    const trace::Trace twitch = day_trace(opt.seed, day);
    const fault::FaultInjector injector(day_faults(opt.seed, day));
    fleet::FederationConfig config = day_config(opt.seed, day);
    SpanRecorder* day_spans = measured ? spans : nullptr;
    replaying = !measured;
    timed.set_unit(day);

    // The hook runs on this thread at the end of every slot: it closes the
    // slot's span and opens the next, so the schedule() calls of a slot
    // (made from the pool threads) name the slot as their parent.
    const std::uint32_t day_span = day_spans != nullptr ? day_spans->reserve() : 0;
    std::uint32_t slot_span = day_spans != nullptr ? day_spans->reserve() : 0;
    const Clock::time_point day_start = Clock::now();
    Clock::time_point slot_start = day_start;
    bool first_slot = true;
    if (day_spans != nullptr) day_spans->set_parent(slot_span);
    config.slot_hook = [&](int, std::int64_t) {
      const Clock::time_point now = Clock::now();
      if (measured) {
        if (!first_slot) phase.slot_us.add(day, us_between(slot_start, now));
        phase.slots.add(day, 1.0);
      }
      if (day_spans != nullptr) {
        day_spans->record(slot_span, day_span, "fleet.slot", slot_start, now);
        slot_span = day_spans->reserve();
        day_spans->set_parent(slot_span);
      }
      first_slot = false;
      slot_start = now;
    };
    core::RunContext context =
        core::RunContext(anxiety_model()).with_fault_injector(&injector);
    if (spans != nullptr) context = context.with_metrics(&registry);
    fleet::Federation federation(config, twitch, timed, context);
    const fleet::FederationReport report = federation.run();

    fleet::FederationReport& t = phase.totals;
    t.capacity_violations += report.capacity_violations;
    t.sessions_lost += report.sessions_lost;
    if (report.slots_run != kDaySlots) ++t.capacity_violations;
    if (!measured) return report;
    phase.day_s.add(day, us_between(day_start, Clock::now()) / 1e6);
    if (day_spans != nullptr) {
      day_spans->set_parent(0);
      day_spans->record(day_span, 0, "fleet.day", day_start, Clock::now());
      phase.checkpoint_bytes += registry.gauge("fleet_checkpoint_bytes").value();
    }
    ++phase.days;
    phase.slot_count += report.slots_run;
    phase.peak_servers += report.peak_servers;
    t.handoffs += report.handoffs;
    t.handoff_failures += report.handoff_failures;
    t.failovers += report.failovers;
    t.placement_moves += report.placement_moves;
    t.sessions_started += report.sessions_started;
    return report;
  };

  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::uint32_t day = 0; day == 0 || Clock::now() < deadline; ++day) {
    const fleet::FederationReport report = run_day(day, true);
    if (day == 0) phase.digest = report.state_digest;
  }
  phase.wall_s = us_between(start, Clock::now()) / 1e6;
  phase.calls = timed.totals();
  if (spans != nullptr) phase.metrics = registry.snapshot();

  phase.replay_matches = run_day(0, false).state_digest == phase.digest;
  phase.violations = timed.totals().violations;
  return phase;
}

/// Schedules breaking (6)/(7) as the decorator or the federation saw them,
/// days that ended early, lost sessions, and a replay that changed day 0.
long failures(const Phase& phase) {
  return phase.violations + phase.totals.capacity_violations +
         phase.totals.sessions_lost + (phase.replay_matches ? 0 : 1);
}

}  // namespace

WorkloadResult run_fleet(const Options& opt) {
  WorkloadResult result;
  result.meta["threads"] = std::to_string(kThreads);

  SpanRecorder spans;
  const Phase untraced =
      run_phase(opt, opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
  result.digest = untraced.digest;
  auto& m = result.metrics;
  if (!opt.trace) {
    result.attempted = untraced.calls.calls + untraced.totals.sessions_started;
    result.failed = failures(untraced);
    result.correct = result.failed == 0;
    result.meta["days"] = std::to_string(untraced.days);
    m["rtt_p50_us"] = untraced.rtt_us.quantile(0.50);
    m["rtt_p99_us"] = untraced.rtt_us.quantile(0.99);
    m["slot_p50_us"] = untraced.slot_us.quantile(0.50);
    m["slot_p99_us"] = untraced.slot_us.quantile(0.99);
    m["viewer_slots_per_s"] = untraced.device_decisions.ratio_to(untraced.day_s);
    m["slots_per_s"] = untraced.slots.ratio_to(untraced.day_s);
    m["setup_s"] = untraced.setup_us.quantile(0.5) / 1e6;
    m["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const Phase traced = run_phase(opt, opt.seconds / 2, &spans);
  result.attempted = traced.calls.calls + traced.totals.sessions_started;
  result.failed = failures(traced) + failures(untraced);
  result.correct = result.failed == 0 && traced.digest == untraced.digest;
  result.meta["days"] = std::to_string(traced.days);

  add_core_and_solver_metrics(traced.calls, traced.metrics, traced.wall_s, m);
  const auto slots = static_cast<double>(traced.slot_count);
  const auto days = static_cast<double>(traced.days);
  const fleet::FederationReport& t = traced.totals;
  m["fleet.serve_us_mean"] =
      histogram_mean(traced.metrics, "lpvs_fleet_slot_serve_ms") * 1e3;
  m["fleet.core_us_per_slot"] = ratio(spans.layer("fleet.slot").children_us, slots);
  m["fleet.solves_per_slot"] = ratio(static_cast<double>(traced.calls.calls), slots);
  m["fleet.handoffs"] = ratio(static_cast<double>(t.handoffs), days);
  m["fleet.handoff_retries"] = ratio(
      static_cast<double>(traced.metrics.counter_value("fleet_handoff_retries_total")),
      days);
  m["fleet.handoff_failures"] = ratio(static_cast<double>(t.handoff_failures), days);
  m["fleet.failovers"] = ratio(static_cast<double>(t.failovers), days);
  m["fleet.checkpoint_bytes"] = ratio(traced.checkpoint_bytes, days);
  m["fleet.placement_moves"] = ratio(static_cast<double>(t.placement_moves), days);
  m["fleet.peak_servers"] = ratio(traced.peak_servers, days);
  finish_traced(opt, spans, traced.wall_s / slots,
                untraced.wall_s / static_cast<double>(untraced.slot_count),
                result);
  return result;
}

}  // namespace lpvsbench
