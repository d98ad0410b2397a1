// Loopback integration: the EdgeServerDaemon under the open-loop load
// generator.  Carries the PR's acceptance criteria:
//   - a concurrent fleet completes all its slots,
//   - per-session payloads are bit-identical across runs with different
//     client thread counts (the determinism contract),
//   - graceful drain leaves zero half-open sessions,
//   - request→schedule latency lands in the metrics registry.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "lpvs/core/scheduler.hpp"
#include "lpvs/loadgen/loadgen.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs {
namespace {

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

const core::LpvsScheduler& scheduler() {
  static const core::LpvsScheduler instance;
  return instance;
}

/// Boots a daemon, runs the fleet, drains, returns the loadgen report.
loadgen::LoadGenReport run_fleet(server::ServerConfig server_config,
                                 loadgen::LoadGenConfig load,
                                 server::ServerStats* stats_out = nullptr,
                                 common::Status* drain_out = nullptr) {
  server::EdgeServerDaemon daemon(server_config, scheduler(),
                                  core::RunContext(anxiety()));
  EXPECT_TRUE(daemon.start().ok());
  load.port = daemon.port();
  auto report = loadgen::run_load(load);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  const common::Status drained = daemon.drain(10000);
  if (drain_out != nullptr) *drain_out = drained;
  EXPECT_TRUE(drained.ok()) << drained.to_string();
  if (stats_out != nullptr) *stats_out = daemon.stats();
  return report.ok() ? *report : loadgen::LoadGenReport{};
}

}  // namespace

TEST(ServingIntegration, ConcurrentFleetCompletesAllSlots) {
  // 64 concurrent clients (16 clusters x 4), 200 slots each.
  server::ServerConfig server_config;
  loadgen::LoadGenConfig load;
  load.clusters = 16;
  load.cluster_size = 4;
  load.slots = 200;
  load.threads = 8;
  load.seed = 11;

  server::ServerStats stats;
  const loadgen::LoadGenReport report =
      run_fleet(server_config, load, &stats);

  EXPECT_EQ(report.sessions, 64);
  EXPECT_EQ(report.completed, 64);
  EXPECT_EQ(report.transport_errors, 0);
  EXPECT_EQ(report.protocol_errors, 0);
  EXPECT_EQ(report.slots_driven, 64L * 200L);
  EXPECT_EQ(stats.slots_scheduled, 16L * 200L);
  EXPECT_EQ(stats.sessions_completed, 64);
}

TEST(ServingIntegration, PayloadsBitIdenticalAcrossThreadCounts) {
  // The same fleet carried by 2 worker threads and by 8 must deliver
  // byte-identical schedule payloads to every session: the schedule is a
  // function of (seed, cluster composition, reported state), never of
  // socket interleaving.
  const auto digests_at = [](std::uint32_t threads) {
    server::ServerConfig server_config;
    server_config.slot.seed = 21;
    loadgen::LoadGenConfig load;
    load.clusters = 8;
    load.cluster_size = 8;
    load.slots = 50;
    load.threads = threads;
    load.seed = 21;
    return run_fleet(server_config, load).digests;
  };

  const std::map<std::uint64_t, std::uint64_t> two = digests_at(2);
  const std::map<std::uint64_t, std::uint64_t> eight = digests_at(8);
  ASSERT_EQ(two.size(), 64u);
  EXPECT_EQ(two, eight);
}

TEST(ServingIntegration, PayloadsBitIdenticalAcrossRuns) {
  const auto digests = [] {
    server::ServerConfig server_config;
    server_config.slot.seed = 5;
    loadgen::LoadGenConfig load;
    load.clusters = 4;
    load.cluster_size = 4;
    load.slots = 40;
    load.threads = 4;
    load.seed = 5;
    return run_fleet(server_config, load).digests;
  };
  EXPECT_EQ(digests(), digests());
}

TEST(ServingIntegration, GiveUpsShrinkClustersWithoutDeadlock) {
  server::ServerConfig server_config;
  loadgen::LoadGenConfig load;
  load.clusters = 4;
  load.cluster_size = 6;
  load.slots = 60;
  load.threads = 4;
  load.seed = 33;
  load.giveup_battery_fraction = 0.5;  // most sessions give up mid-run

  server::ServerStats stats;
  const loadgen::LoadGenReport report =
      run_fleet(server_config, load, &stats);
  EXPECT_GT(report.gave_up, 0);
  // Every session still ends with an orderly BYE (reason: gave up).
  EXPECT_EQ(report.completed, 24);
  EXPECT_EQ(stats.sessions_completed, 24);
  EXPECT_EQ(stats.forced_closes, 0);
}

TEST(ServingIntegration, DrainLeavesZeroHalfOpenSessions) {
  server::ServerConfig server_config;
  loadgen::LoadGenConfig load;
  load.clusters = 8;
  load.cluster_size = 4;
  load.slots = 30;
  load.threads = 4;
  load.seed = 44;
  load.arrival_rate_per_s = 200.0;  // staggered Poisson arrivals

  server::ServerStats stats;
  common::Status drained;
  const loadgen::LoadGenReport report =
      run_fleet(server_config, load, &stats, &drained);

  EXPECT_TRUE(drained.ok());
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.forced_closes, 0);
  // accepted == completed: nobody left half-open.
  EXPECT_EQ(stats.accepted, stats.sessions_completed);
  EXPECT_EQ(report.completed, 32);
}

TEST(ServingIntegration, LatencyExportedThroughMetricsRegistry) {
  obs::MetricsRegistry registry;

  server::ServerConfig server_config;
  server::EdgeServerDaemon daemon(
      server_config, scheduler(),
      core::RunContext(anxiety()).with_metrics(&registry));
  ASSERT_TRUE(daemon.start().ok());

  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 4;
  load.cluster_size = 4;
  load.slots = 25;
  load.threads = 4;
  load.seed = 7;
  load.metrics = &registry;
  auto report = loadgen::run_load(load);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(daemon.drain(10000).ok());

  EXPECT_GT(report->latency_p99_ms, 0.0);
  EXPECT_GE(report->latency_p99_ms, report->latency_p50_ms);
  EXPECT_EQ(report->latency_samples, 4L * 4L * 25L);

  // Both sides of the wire exported through the registry, read back via
  // the typed snapshot lookups.
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::HistogramSample* loadgen_hist =
      snapshot.histogram("lpvs_loadgen_request_schedule_ms");
  ASSERT_NE(loadgen_hist, nullptr);
  EXPECT_EQ(loadgen_hist->count, 4L * 4L * 25L);
  EXPECT_GE(loadgen_hist->quantile(0.99), loadgen_hist->quantile(0.50));

  const obs::HistogramSample* server_hist =
      snapshot.histogram("lpvs_server_schedule_ms");
  ASSERT_NE(server_hist, nullptr);
  EXPECT_EQ(server_hist->count, 4L * 25L);  // one observation per cluster slot

  ASSERT_NE(snapshot.counter("lpvs_server_slots_total"), nullptr);
  EXPECT_EQ(snapshot.counter_value("lpvs_server_slots_total"), 4L * 25L);

  // Every daemon counter the run bumped reads back into its ServerStats
  // field (the handoff count has none).  The names are spelled out here,
  // independently of the daemon's own table.
  const std::map<std::string, long server::ServerStats::*> fields = {
      {"lpvs_server_accepted_total", &server::ServerStats::accepted},
      {"lpvs_server_admission_rejects_total",
       &server::ServerStats::admission_rejects},
      {"lpvs_server_decode_errors_total", &server::ServerStats::decode_errors},
      {"lpvs_server_protocol_errors_total",
       &server::ServerStats::protocol_errors},
      {"lpvs_server_backpressure_closes_total",
       &server::ServerStats::backpressure_closes},
      {"lpvs_server_frames_rx_total", &server::ServerStats::frames_rx},
      {"lpvs_server_frames_tx_total", &server::ServerStats::frames_tx},
      {"lpvs_server_slots_total", &server::ServerStats::slots_scheduled},
      {"lpvs_server_sessions_completed_total",
       &server::ServerStats::sessions_completed},
      {"lpvs_server_forced_closes_total", &server::ServerStats::forced_closes},
      {"lpvs_server_shed_total", &server::ServerStats::shed_slots},
      {"lpvs_io_syscalls_total", &server::ServerStats::io_syscalls},
      {"lpvs_io_read_syscalls_total", &server::ServerStats::io_read_syscalls},
      {"lpvs_io_write_syscalls_total", &server::ServerStats::io_write_syscalls},
      {"lpvs_io_uring_enters_total", &server::ServerStats::io_uring_enters},
      {"lpvs_io_submissions_total", &server::ServerStats::io_submissions},
      {"lpvs_io_flushes_total", &server::ServerStats::io_flushes},
      {"lpvs_io_backend_fallback_total",
       &server::ServerStats::backend_fallbacks},
  };
  const server::ServerStats stats = daemon.stats();
  int bumped = 0;
  for (const obs::CounterSample& counter : registry.snapshot().counters) {
    if (!counter.name.starts_with("lpvs_server_") &&
        !counter.name.starts_with("lpvs_io_")) {
      continue;
    }
    if (counter.value == 0 || counter.name == "lpvs_server_handoffs_total") {
      continue;
    }
    ++bumped;
    const auto field = fields.find(counter.name);
    ASSERT_NE(field, fields.end()) << counter.name << " has no field";
    EXPECT_EQ(stats.*field->second, counter.value) << counter.name;
  }
  // accepted, frames rx/tx, slots, completed and the io ledger at least.
  EXPECT_GE(bumped, 9);
  EXPECT_EQ(stats.active, 0);
}

TEST(ServingIntegration, TraceReplaySessionsComplete) {
  server::ServerConfig server_config;
  loadgen::LoadGenConfig load;
  load.clusters = 6;
  load.cluster_size = 3;
  load.slots = 40;  // cap; trace durations vary below it
  load.threads = 3;
  load.seed = 17;
  load.use_trace = true;

  server::ServerStats stats;
  const loadgen::LoadGenReport report =
      run_fleet(server_config, load, &stats);
  EXPECT_EQ(report.sessions, 18);
  EXPECT_EQ(report.completed, 18);
  EXPECT_EQ(report.transport_errors, 0);
  EXPECT_GT(stats.slots_scheduled, 0);
}

}  // namespace lpvs
