// Serve a small city: boot the networked edge-server daemon, point the
// open-loop load generator at it, and watch the LPVS slot cadence run over
// real sockets.
//
//   1. Start an EdgeServerDaemon on an ephemeral loopback port.  It hosts
//      the epoll event loop, the lpvs-wire/session protocol, and the
//      two-phase scheduler behind a metrics registry.
//   2. Launch a fleet of viewer sessions (Poisson arrivals, Twitch-like
//      genres) that HELLO, REPORT battery each slot, and receive
//      SCHEDULE + GRANT pushes until they finish or give up.
//   3. Drain the daemon gracefully and print what both sides saw.
//
// Build & run:  ./build/examples/serve_city
#include <cstdio>

#include "lpvs/core/scheduler.hpp"
#include "lpvs/loadgen/loadgen.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/survey/lba_curve.hpp"

int main() {
  using namespace lpvs;

  // (1) The daemon: scheduler + anxiety model behind a socket front end.
  const survey::AnxietyModel anxiety = survey::AnxietyModel::reference();
  obs::MetricsRegistry registry;

  const server::ServerConfig server_config =
      server::ServerConfig{}.with_seed(42).with_workers(2);
  const core::LpvsScheduler scheduler;
  server::EdgeServerDaemon daemon(
      server_config, scheduler,
      core::RunContext(anxiety).with_metrics(&registry));
  if (!daemon.start().ok()) {
    std::fprintf(stderr, "failed to start daemon\n");
    return 1;
  }
  std::printf("edge daemon listening on 127.0.0.1:%u\n\n", daemon.port());

  // (2) The city: 12 virtual clusters x 4 viewers, 60 slots each, arriving
  // as a Poisson process; a third will give up when battery runs low.
  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 12;
  load.cluster_size = 4;
  load.slots = 60;
  load.threads = 4;
  load.seed = 42;
  load.arrival_rate_per_s = 100.0;
  load.giveup_battery_fraction = 0.15;
  load.metrics = &registry;

  auto report = loadgen::run_load(load);
  if (!report.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }

  // (3) Graceful drain, then the evening report.
  const common::Status drained = daemon.drain(10000);
  const server::ServerStats stats = daemon.stats();

  std::printf("viewer side:\n");
  std::printf("  sessions           %ld (completed %ld, gave up early %ld)\n",
              report->sessions, report->completed, report->gave_up);
  std::printf("  slots streamed     %ld in %.2f s\n", report->slots_driven,
              report->elapsed_s);
  std::printf("  request->schedule  p50 %.3f ms, p99 %.3f ms\n\n",
              report->latency_p50_ms, report->latency_p99_ms);

  std::printf("server side:\n");
  std::printf("  accepted %ld, completed %ld, still active %ld\n",
              stats.accepted, stats.sessions_completed, stats.active);
  std::printf("  cluster slots scheduled %ld, frames rx/tx %ld/%ld\n",
              stats.slots_scheduled, stats.frames_rx, stats.frames_tx);
  std::printf("  drain: %s, forced closes: %ld\n",
              drained.ok() ? "clean" : drained.to_string().c_str(),
              stats.forced_closes);
  return drained.ok() && stats.forced_closes == 0 ? 0 : 1;
}
