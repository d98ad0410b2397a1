// Rung-enabled serving end to end: with ServerConfig::abr.enabled the
// daemon solves the joint ABR x transform ILP per cluster slot and
// SCHEDULE frames carry the granted ladder rung.  These tests drive the
// full loop — loadgen fleets for worker-count bit-determinism, raw sockets
// for frame-level assertions — plus the trace-replay client path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include "lpvs/common/io.hpp"
#include "lpvs/common/wire.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/loadgen/loadgen.hpp"
#include "lpvs/server/protocol.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs {
namespace {

namespace io = common::io;
namespace protocol = server::protocol;

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

const core::LpvsScheduler& scheduler() {
  static const core::LpvsScheduler instance;
  return instance;
}

/// The per-session payload digests of run_fleet's seed-63 fleet, folded in
/// user order.  Pinned so a change to slot assembly or the joint solve that
/// moves every worker count alike still shows.
constexpr std::uint64_t kPayloadDigest = 0xB9CC8FFDB90C4CE0ULL;

std::uint64_t fold_digests(
    const std::map<std::uint64_t, std::uint64_t>& digests) {
  std::uint64_t folded = common::wire::kFnvOffsetBasis;
  for (const auto& [user, digest] : digests) {
    for (const std::uint64_t value : {user, digest}) {
      std::uint8_t bytes[8];
      for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
      folded = common::wire::fnv1a(folded, bytes, sizeof bytes);
    }
  }
  return folded;
}

server::ServerConfig abr_config(std::uint32_t workers, bool abr = true) {
  return server::ServerConfig{}
      .with_seed(63)
      .with_workers(workers)
      .with_abr(server::AbrConfig{}.with_enabled(abr));
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool send_frame(int fd, const protocol::Frame& frame) {
  const std::vector<std::uint8_t> bytes = protocol::encode(frame);
  return io::write_all(fd, bytes.data(), bytes.size()).ok();
}

common::StatusOr<protocol::Frame> read_frame(int fd) {
  std::uint8_t prefix[4];
  common::Status status = io::read_exact(fd, prefix, sizeof(prefix));
  if (!status.ok()) return status;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  std::vector<std::uint8_t> payload(length);
  status = io::read_exact(fd, payload.data(), payload.size());
  if (!status.ok()) return status;
  return protocol::decode_payload(std::move(payload));
}

/// One full fleet against a daemon, rung-enabled unless `abr` is false;
/// returns the loadgen report so callers can compare digests and playout
/// accounting.
loadgen::LoadGenReport run_fleet(std::uint32_t workers, std::uint32_t threads,
                                 bool abr = true) {
  server::EdgeServerDaemon daemon(abr_config(workers, abr), scheduler(),
                                  core::RunContext(anxiety()));
  EXPECT_TRUE(daemon.start().ok());

  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 6;
  load.cluster_size = 4;
  load.slots = 20;
  load.threads = threads;
  load.seed = 63;

  auto report = loadgen::run_load(load);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(daemon.drain(10000).ok());
  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.sessions_completed, 24);
  EXPECT_EQ(stats.forced_closes, 0);
  EXPECT_EQ(stats.capacity_violations, 0);
  return report.ok() ? *report : loadgen::LoadGenReport{};
}

TEST(ServerAbr, RungEnabledPayloadsBitIdenticalAcrossWorkerCounts) {
  // The acceptance bar of the joint subsystem's serving path: the rung
  // grants ride the same deterministic pipeline as the transform bits, so
  // payload digests cannot depend on the reactor count.
  const loadgen::LoadGenReport reference = run_fleet(1, 2);
  ASSERT_EQ(reference.digests.size(), 24u);
  EXPECT_EQ(fold_digests(reference.digests), kPayloadDigest)
      << std::hex << fold_digests(reference.digests);
  // The fleet actually streamed under governance: granted bitrates are
  // ladder rates, not the HELLO defaults.
  EXPECT_GT(reference.mean_granted_bitrate_mbps, 0.0);

  for (const std::uint32_t workers : {2u, 8u}) {
    const loadgen::LoadGenReport report = run_fleet(workers, 4);
    EXPECT_EQ(report.digests, reference.digests)
        << "digests diverged at workers=" << workers;
    EXPECT_DOUBLE_EQ(report.mean_granted_bitrate_mbps,
                     reference.mean_granted_bitrate_mbps);
  }
}

TEST(ServerAbr, LoadgenPlayoutTotalsArePinned) {
  // No payload digest sees the clients' playout accounting, so its totals
  // are pinned here: a change to the playout buffer or the throughput
  // estimator moves them.  One run with rung grants, one without (the
  // clients keep their HELLO bitrates).
  const loadgen::LoadGenReport governed = run_fleet(1, 2);
  EXPECT_EQ(governed.startup_delay_s, 1048.5950137045752);
  EXPECT_EQ(governed.rebuffer_time_s, 13719.136701440568);
  EXPECT_EQ(governed.rebuffer_events, 59);

  const loadgen::LoadGenReport fixed = run_fleet(1, 2, /*abr=*/false);
  EXPECT_EQ(fixed.startup_delay_s, 1083.0860332725579);
  EXPECT_EQ(fixed.rebuffer_time_s, 13663.827795464607);
  EXPECT_EQ(fixed.rebuffer_events, 49);
}

TEST(ServerAbr, ScheduleCarriesGrantedLadderRung) {
  // A lone fast client must be granted the top rung: every rung passes the
  // throughput gate and the default weights make higher utility win.
  server::EdgeServerDaemon daemon(abr_config(1), scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  protocol::Hello hello;
  hello.user_id = 7;
  hello.cluster_id = 1;
  hello.cluster_size = 1;
  hello.slots_total = 1;
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello)));
  auto ack = read_frame(fd);
  ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  ASSERT_EQ(ack->type, protocol::FrameType::kHelloAck);

  protocol::Report report;
  report.slot = 0;
  report.battery_fraction = 0.9;
  report.buffer_s = 30.0;
  report.throughput_mbps = 50.0;
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(report)));

  auto schedule = read_frame(fd);
  ASSERT_TRUE(schedule.ok()) << schedule.status().to_string();
  ASSERT_EQ(schedule->type, protocol::FrameType::kSchedule);
  const auto& body = schedule->as<protocol::Schedule>();
  EXPECT_EQ(body.bitrate_rung, 4);
  EXPECT_DOUBLE_EQ(body.bitrate_mbps, 5.0);

  auto grant = read_frame(fd);
  ASSERT_TRUE(grant.ok());
  ASSERT_EQ(grant->type, protocol::FrameType::kGrant);

  ASSERT_TRUE(send_frame(fd, protocol::make_frame(protocol::Bye{0})));
  EXPECT_TRUE(daemon.drain(10000).ok());
  io::close_fd(fd);
}

TEST(ServerAbr, StarvedLinkIsGovernedToTheLadderFloor) {
  // Zero reported throughput gates every rung above the floor: the grant
  // must come back governed to the lowest ladder rate, never ungoverned.
  server::EdgeServerDaemon daemon(abr_config(1), scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  protocol::Hello hello;
  hello.user_id = 8;
  hello.cluster_id = 2;
  hello.cluster_size = 1;
  hello.slots_total = 1;
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello)));
  auto ack = read_frame(fd);
  ASSERT_TRUE(ack.ok());

  protocol::Report report;
  report.slot = 0;
  report.battery_fraction = 0.5;
  report.buffer_s = 0.0;
  report.throughput_mbps = 0.0;
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(report)));

  auto schedule = read_frame(fd);
  ASSERT_TRUE(schedule.ok()) << schedule.status().to_string();
  const auto& body = schedule->as<protocol::Schedule>();
  EXPECT_EQ(body.bitrate_rung, 0);
  EXPECT_DOUBLE_EQ(body.bitrate_mbps, 1.0);  // governed to the floor

  auto grant = read_frame(fd);
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(protocol::Bye{0})));
  EXPECT_TRUE(daemon.drain(10000).ok());
  io::close_fd(fd);
}

TEST(ServerAbr, DisabledAbrLeavesGrantsUngoverned) {
  // The v1 behavior must survive verbatim when abr.enabled is false:
  // bitrate fields stay zero, meaning "keep your current rate".
  server::EdgeServerDaemon daemon(
      server::ServerConfig{}.with_seed(63), scheduler(),
      core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  protocol::Hello hello;
  hello.user_id = 9;
  hello.cluster_id = 3;
  hello.cluster_size = 1;
  hello.slots_total = 1;
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello)));
  auto ack = read_frame(fd);
  ASSERT_TRUE(ack.ok());

  protocol::Report report;
  report.slot = 0;
  report.buffer_s = 30.0;
  report.throughput_mbps = 50.0;
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(report)));

  auto schedule = read_frame(fd);
  ASSERT_TRUE(schedule.ok()) << schedule.status().to_string();
  const auto& body = schedule->as<protocol::Schedule>();
  EXPECT_EQ(body.bitrate_rung, 0);
  EXPECT_DOUBLE_EQ(body.bitrate_mbps, 0.0);

  auto grant = read_frame(fd);
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(protocol::Bye{0})));
  EXPECT_TRUE(daemon.drain(10000).ok());
  io::close_fd(fd);
}

TEST(ServerAbr, TraceDrivenClientsAreDeterministic) {
  // Clients replaying a shared throughput trace (phase-shifted per user)
  // must produce identical digests and playout accounting run over run.
  const std::string path = "loadgen_trace_test.txt";
  {
    std::ofstream out(path);
    out << "lpvs-throughput v1\n";
    for (const double mbps : {8.0, 3.5, 12.0, 1.2, 6.0, 20.0, 2.4}) {
      out << mbps << "\n";
    }
  }

  auto run_once = [&] {
    server::EdgeServerDaemon daemon(abr_config(2), scheduler(),
                                    core::RunContext(anxiety()));
    EXPECT_TRUE(daemon.start().ok());
    loadgen::LoadGenConfig load;
    load.port = daemon.port();
    load.clusters = 3;
    load.cluster_size = 2;
    load.slots = 12;
    load.threads = 2;
    load.seed = 29;
    load.throughput_trace = path;
    auto report = loadgen::run_load(load);
    EXPECT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(daemon.drain(10000).ok());
    return report.ok() ? *report : loadgen::LoadGenReport{};
  };

  const loadgen::LoadGenReport first = run_once();
  const loadgen::LoadGenReport second = run_once();
  ASSERT_EQ(first.digests.size(), 6u);
  EXPECT_EQ(first.digests, second.digests);
  EXPECT_DOUBLE_EQ(first.rebuffer_time_s, second.rebuffer_time_s);
  EXPECT_EQ(first.rebuffer_events, second.rebuffer_events);
  EXPECT_DOUBLE_EQ(first.startup_delay_s, second.startup_delay_s);
  EXPECT_DOUBLE_EQ(first.mean_granted_bitrate_mbps,
                   second.mean_granted_bitrate_mbps);
  std::remove(path.c_str());
}

TEST(ServerAbr, MissingTraceFailsTheRunUpFront) {
  server::EdgeServerDaemon daemon(abr_config(1), scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());
  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 1;
  load.cluster_size = 1;
  load.slots = 1;
  load.throughput_trace = "/nonexistent/trace.txt";
  auto report = loadgen::run_load(load);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), common::StatusCode::kNotFound);
  EXPECT_TRUE(daemon.drain(1000).ok());
}

}  // namespace
}  // namespace lpvs
