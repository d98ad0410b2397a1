// serve_c4 and serve_abr_c4: the EdgeServerDaemon under the closed-loop
// load generator, over loopback, in this process.
//
// Load budget: one loadgen thread drives one cluster of 4 viewers at a
// time (at most 4 connections open), and a cluster sends its next REPORTs
// only after all of its SCHEDULE+GRANT pairs arrived.  The daemon runs its
// production defaults (Backend::kAuto, FlushMode::kBurst) with 1 worker
// reactor plus the dispatcher.  Each loadgen run drives kClustersPerRun
// clusters one after another; runs repeat until the time is up.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/loadgen/loadgen.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/server/event_loop.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/streaming/network.hpp"
#include "spans.hpp"
#include "timed_scheduler.hpp"

namespace lpvsbench {
namespace {

namespace core = lpvs::core;
namespace loadgen = lpvs::loadgen;
namespace obs = lpvs::obs;
namespace server = lpvs::server;

constexpr std::uint32_t kClusterSize = 4;
constexpr std::uint32_t kClustersPerRun = 8;
constexpr std::uint32_t kSlotsPerSession = 50;
/// Spare daemons set up (and stopped) at the start of each window.
constexpr int kSetupRepsPerWindow = 25;
/// Loadgen runs folded into the digest (and always driven, however short
/// the run): run 0 is driven again at the end and must reproduce its bytes.
constexpr std::uint32_t kDigestRuns = 4;
constexpr std::uint64_t kServerSalt = 0x5E4E;
constexpr std::uint64_t kLoadSalt = 0x10AD;
const char* const kThroughputTrace = "bench/traces/lte_urban.txt";
const char* const kRttHistogram = "lpvs_loadgen_request_schedule_ms";

const char* backend_name(server::EventLoop::Backend backend) {
  switch (backend) {
    case server::EventLoop::Backend::kEpoll:
      return "epoll";
    case server::EventLoop::Backend::kPoll:
      return "poll";
    case server::EventLoop::Backend::kUring:
      return "uring";
    case server::EventLoop::Backend::kAuto:
      break;
  }
  return "auto";
}

/// One daemon lifetime: set up, drive loadgen runs until the deadline,
/// replay run 0, drain.
struct Phase {
  WindowedSeries setup_us;  ///< spare daemons, at the start of each window
  // Per timed loadgen run, at the run's start.
  WindowedSeries slot_us;        ///< the run's wall time per cluster slot
  WindowedSeries vslots;         ///< SCHEDULE+GRANT pairs delivered
  WindowedSeries cluster_slots;  ///< vslots over the cluster size
  WindowedSeries loadgen_s;      ///< the loadgen's elapsed time
  /// REPORT→SCHEDULE histogram of each window, then one for the runs past
  /// the last window (the minimum digest runs, the replay).
  std::vector<obs::HistogramSample> rtt;
  double loadgen_elapsed_s = 0.0;  ///< timed runs
  long timed_vslots = 0;
  long runs = 0;

  long sessions = 0;  ///< viewer sessions planned, replay included
  long completed = 0;
  long transport_errors = 0;
  long protocol_errors = 0;
  long latency_samples = 0;
  long all_vslots = 0;  ///< replay included
  double rebuffer_s = 0.0;
  double bitrate_x_vslots = 0.0;

  std::uint64_t digest = lpvs::common::wire::kFnvOffsetBasis;
  bool started = false;  ///< every daemon, spares included, started
  bool replay_matches = false;
  bool drained = false;
  server::ServerStats stats;
  obs::MetricsSnapshot daemon_metrics;  ///< traced phases only
  CallTotals calls;  ///< replay included
  double wall_s = 0.0;
};

std::uint64_t run_digest(const loadgen::LoadGenReport& report) {
  std::uint64_t digest = lpvs::common::wire::kFnvOffsetBasis;
  for (const auto& [user, payload] : report.digests) {
    digest = fold(fold(digest, user), payload);
  }
  return digest;
}

Phase run_phase(const Options& opt, bool abr, double seconds,
                SpanRecorder* spans) {
  const core::LpvsScheduler lpvs_scheduler;
  TimedScheduler timed(lpvs_scheduler, spans);
  server::ServerConfig config = server::ServerConfig{}
                                    .with_seed(derive_seed(opt.seed, kServerSalt))
                                    .with_workers(1);
  if (abr) config = config.with_abr(server::AbrConfig{}.with_enabled(true));

  // Set-up: daemon construction and start, plus the throughput trace load
  // on the ABR workload.  The serving daemon of a traced phase gets a
  // registry, so the program's own counters and histograms (scheduler and
  // solver included) are live; set-up is timed on spare daemons without
  // one, a few at the start of every window, so that it is reduced across
  // windows as every other statistic is.
  const auto set_up = [&](obs::MetricsRegistry* metrics, bool& ok) {
    auto daemon = std::make_unique<server::EdgeServerDaemon>(
        config, timed, core::RunContext(anxiety_model()).with_metrics(metrics));
    ok = daemon->start().ok();
    if (abr) {
      ok = ok && lpvs::streaming::ThroughputModel::from_trace_file(kThroughputTrace)
                     .ok();
    }
    return daemon;
  };
  const std::unique_ptr<obs::MetricsRegistry> registry =
      spans != nullptr ? std::make_unique<obs::MetricsRegistry>() : nullptr;
  Phase phase;
  const std::unique_ptr<server::EdgeServerDaemon> daemon =
      set_up(registry.get(), phase.started);
  if (!phase.started) return phase;

  const Clock::time_point start = Clock::now();
  const Windows windows(start, seconds);
  // Every thread of the phase, the daemons' included, shares one CPU per
  // window (see CpuRotation).
  CpuRotation rotation;
  std::size_t set_up_window = Windows::kCount;
  const auto time_set_up = [&](std::size_t w) {
    if (w >= Windows::kCount || w == set_up_window) return;
    set_up_window = w;
    rotation.enter(w);
    for (int rep = 0; rep < kSetupRepsPerWindow; ++rep) {
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      const std::unique_ptr<server::EdgeServerDaemon> spare = set_up(nullptr, ok);
      phase.setup_us.add(w, us_between(t0, Clock::now()));
      phase.started = phase.started && ok;
      spare->stop();
    }
  };

  std::vector<std::unique_ptr<obs::MetricsRegistry>> rtt_registries;
  for (std::size_t w = 0; w <= Windows::kCount; ++w) {
    rtt_registries.push_back(std::make_unique<obs::MetricsRegistry>());
    // 1%-wide buckets from 1 µs to 1 s (bounds in ms), registered before
    // the loadgen registers its own REPORT→SCHEDULE histogram under the
    // same name, so the loadgen observes into these instead of its coarse
    // ladder and the RTT quantiles are good to about 1%.
    rtt_registries.back()->histogram(kRttHistogram, fine_buckets(1e-3, 1e3));
  }
  loadgen::LoadGenConfig load;
  load.port = daemon->port();
  load.clusters = kClustersPerRun;
  load.cluster_size = kClusterSize;
  load.slots = kSlotsPerSession;
  load.threads = 1;
  if (abr) load.throughput_trace = kThroughputTrace;

  const auto drive = [&](std::uint32_t run) {
    load.seed = derive_seed(opt.seed, kLoadSalt, run);
    std::uint32_t span = 0;
    if (spans != nullptr) {
      span = spans->reserve();
      spans->set_parent(span);
    }
    const Clock::time_point t0 = Clock::now();
    rotation.enter(windows.at(t0));
    load.metrics = rtt_registries[windows.at(t0)].get();
    lpvs::common::StatusOr<loadgen::LoadGenReport> report = loadgen::run_load(load);
    if (spans != nullptr) {
      spans->record(span, 0, "loadgen.run", t0, Clock::now());
      spans->set_parent(0);
    }
    phase.sessions += kClustersPerRun * kClusterSize;
    if (!report.ok()) return loadgen::LoadGenReport{};
    phase.completed += report->completed;
    phase.transport_errors += report->transport_errors;
    phase.protocol_errors += report->protocol_errors;
    phase.latency_samples += report->latency_samples;
    phase.all_vslots += report->slots_driven;
    phase.rebuffer_s += report->rebuffer_time_s;
    phase.bitrate_x_vslots +=
        report->mean_granted_bitrate_mbps * static_cast<double>(report->slots_driven);
    return std::move(report).value();
  };

  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::uint64_t first_digest = 0;
  for (std::uint32_t run = 0; run < kDigestRuns || Clock::now() < deadline;
       ++run) {
    time_set_up(windows.at(Clock::now()));
    const Clock::time_point t0 = Clock::now();
    const loadgen::LoadGenReport report = drive(run);
    const std::uint64_t digest = run_digest(report);
    if (run == 0) first_digest = digest;
    if (run < kDigestRuns) phase.digest = fold(phase.digest, digest);
    const auto vslots = static_cast<double>(report.slots_driven);
    ++phase.runs;
    phase.loadgen_elapsed_s += report.elapsed_s;
    phase.timed_vslots += report.slots_driven;
    windows.add(phase.slot_us, t0,
                ratio(report.elapsed_s * 1e6, vslots / kClusterSize));
    windows.add(phase.vslots, t0, vslots);
    windows.add(phase.cluster_slots, t0, vslots / kClusterSize);
    windows.add(phase.loadgen_s, t0, report.elapsed_s);
  }
  phase.wall_s = us_between(start, Clock::now()) / 1e6;
  phase.replay_matches = run_digest(drive(0)) == first_digest;
  for (const auto& window : rtt_registries) {
    phase.rtt.push_back(*window->snapshot().histogram(kRttHistogram));
  }

  phase.drained = daemon->drain(10000).ok();
  phase.stats = daemon->stats();
  if (registry) phase.daemon_metrics = registry->snapshot();
  phase.calls = timed.totals();
  return phase;
}

/// Viewer sessions that did not end with an orderly BYE, plus every
/// run-level fault: forced closes, backend fallbacks, an unclean drain,
/// schedules breaking (6)/(7), and a replay that changed its bytes.
long failures(const Phase& phase) {
  return (phase.sessions - phase.completed) + phase.stats.forced_closes +
         phase.stats.backend_fallbacks + (phase.drained ? 0 : 1) +
         phase.calls.violations + (phase.replay_matches ? 0 : 1) +
         (phase.started ? 0 : 1);
}

}  // namespace

WorkloadResult run_serve(const Options& opt, bool abr) {
  WorkloadResult result;
  const server::EventLoop probe(server::EventLoop::Backend::kAuto);
  result.meta["io_backend"] = backend_name(probe.backend());
  result.meta["io_uring_supported"] =
      server::EventLoop::uring_supported() ? "yes" : "no";
  result.meta["loadgen_threads"] = "1";
  result.meta["daemon_threads"] = "1 worker + 1 dispatcher";
  result.meta["max_connections"] = std::to_string(kClusterSize);
  result.meta["loadgen_shares_process_and_cores"] =
      "yes: the loadgen and the daemon's threads are pinned to one cpu per "
      "window, rotating, so serving figures are single-core figures";

  // A traced run measures an untraced half first: the difference between
  // the halves' loadgen time per viewer slot is the cost of tracing.
  SpanRecorder spans;
  const Phase untraced =
      run_phase(opt, abr, opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
  const Phase traced = opt.trace ? run_phase(opt, abr, opt.seconds / 2, &spans)
                                 : Phase{};
  const Phase& main = opt.trace ? traced : untraced;

  result.digest = untraced.digest;
  result.attempted = main.sessions + main.calls.calls;
  result.failed = failures(main) + (opt.trace ? failures(untraced) : 0);
  result.correct = result.failed == 0 && main.transport_errors == 0 &&
                   main.protocol_errors == 0 &&
                   (!opt.trace || traced.digest == untraced.digest);
  if (probe.backend() == server::EventLoop::Backend::kUring &&
      main.stats.io_uring_enters == 0) {
    result.correct = false;  // the daemon did not run the backend it claims
  }

  double rtt_sum_ms = 0.0;
  long rtt_count = 0;
  std::vector<double> rtt_p50_us;
  std::vector<double> rtt_p99_us;
  for (std::size_t w = 0; w < main.rtt.size(); ++w) {
    const obs::HistogramSample& window = main.rtt[w];
    rtt_sum_ms += window.sum;
    rtt_count += window.count;
    if (w < Windows::kCount && window.count > 0) {
      rtt_p50_us.push_back(window.quantile(0.50) * 1e3);
      rtt_p99_us.push_back(window.quantile(0.99) * 1e3);
    }
  }
  result.meta["loadgen_runs"] = std::to_string(main.runs);
  result.meta["rtt_samples"] = std::to_string(rtt_count);

  auto& m = result.metrics;
  if (!opt.trace) {
    m["rtt_p50_us"] = quantile(rtt_p50_us, 0.5);
    m["rtt_p99_us"] = quantile(rtt_p99_us, 0.5);
    m["slot_p50_us"] = main.slot_us.quantile(0.50);
    m["slot_p99_us"] = main.slot_us.quantile(0.99);
    m["viewer_slots_per_s"] = main.vslots.ratio_to(main.loadgen_s);
    m["slots_per_s"] = main.cluster_slots.ratio_to(main.loadgen_s);
    m["setup_s"] = main.setup_us.quantile(0.5) / 1e6;
    m["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const auto vslots = static_cast<double>(main.all_vslots);
  const server::ServerStats& stats = main.stats;
  m["server.syscalls_per_vslot"] = ratio(stats.io_syscalls, vslots);
  m["server.read_syscalls_per_vslot"] = ratio(stats.io_read_syscalls, vslots);
  m["server.write_syscalls_per_vslot"] = ratio(stats.io_write_syscalls, vslots);
  m["server.uring_enters_per_vslot"] = ratio(stats.io_uring_enters, vslots);
  m["server.batch_occupancy_mean"] =
      histogram_mean(main.daemon_metrics, "lpvs_io_batch_occupancy");
  const double schedule_us =
      histogram_mean(main.daemon_metrics, "lpvs_server_schedule_ms") * 1e3;
  m["server.schedule_us_mean"] = schedule_us;
  m["server.outside_schedule_us"] =
      ratio(rtt_sum_ms, static_cast<double>(rtt_count)) * 1e3 - schedule_us;
  m["server.fallbacks"] = static_cast<double>(stats.backend_fallbacks);
  m["server.shed_slots"] = static_cast<double>(stats.shed_slots);

  m["loadgen.latency_samples"] = static_cast<double>(main.latency_samples);
  m["loadgen.transport_errors"] = static_cast<double>(main.transport_errors);
  m["loadgen.protocol_errors"] = static_cast<double>(main.protocol_errors);
  m["loadgen.mean_bitrate_mbps"] = ratio(main.bitrate_x_vslots, vslots);
  m["loadgen.rebuffer_s_per_kslot"] = ratio(main.rebuffer_s * 1e3, vslots);

  add_core_and_solver_metrics(main.calls, main.daemon_metrics, main.wall_s, m);
  // The ABR daemon solves the joint program itself and never calls the
  // decorated scheduler, so there is no decorator time to subtract.
  m["server.assembly_us_mean"] =
      main.calls.calls == 0 ? 0.0 : schedule_us - m["core.schedule_us_mean"];

  const double abr_solves = static_cast<double>(
      main.daemon_metrics.counter_value("lpvs_abr_joint_solves_total"));
  m["abr.solves"] = abr_solves;
  m["abr.nodes_per_solve"] =
      ratio(static_cast<double>(main.daemon_metrics.counter_value(
                "lpvs_abr_joint_nodes_total")),
            abr_solves);
  m["abr.granted_rung_mean"] =
      histogram_mean(main.daemon_metrics, "lpvs_abr_granted_rung");

  finish_traced(opt, spans,
                ratio(traced.loadgen_elapsed_s,
                      static_cast<double>(traced.timed_vslots)),
                ratio(untraced.loadgen_elapsed_s,
                      static_cast<double>(untraced.timed_vslots)),
                result);
  return result;
}

}  // namespace lpvsbench
