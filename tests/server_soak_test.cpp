// Nightly soak: 256 concurrent sessions x 200 slots through the daemon over
// loopback, with Poisson arrivals and give-ups enabled.  Asserts the
// steady-state invariants hold at scale: every session ends orderly, no
// forced closes, no decode or transport errors, and the drain is clean.
#include <gtest/gtest.h>

#include "lpvs/core/scheduler.hpp"
#include "lpvs/loadgen/loadgen.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs {
namespace {

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

}  // namespace

TEST(ServerSoak, TwoHundredFiftySixClientsTwoHundredSlots) {
  const core::LpvsScheduler scheduler;
  // Multi-reactor configuration: 4 worker shards under the soak load.
  const server::ServerConfig server_config =
      server::ServerConfig{}.with_seed(99).with_workers(4);
  server::EdgeServerDaemon daemon(server_config, scheduler,
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 32;
  load.cluster_size = 8;  // 256 sessions
  load.slots = 200;
  load.threads = 8;
  load.seed = 99;
  load.arrival_rate_per_s = 500.0;

  auto report = loadgen::run_load(load);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(daemon.drain(30000).ok());
  const server::ServerStats stats = daemon.stats();

  EXPECT_EQ(report->sessions, 256);
  EXPECT_EQ(report->completed, 256);
  EXPECT_EQ(report->transport_errors, 0);
  EXPECT_EQ(report->protocol_errors, 0);
  EXPECT_EQ(report->slots_driven, 256L * 200L);

  EXPECT_EQ(stats.accepted, 256);
  EXPECT_EQ(stats.sessions_completed, 256);
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.forced_closes, 0);
  EXPECT_EQ(stats.capacity_violations, 0);
  EXPECT_EQ(stats.decode_errors, 0);
  EXPECT_EQ(stats.slots_scheduled, 32L * 200L);
}

}  // namespace lpvs
