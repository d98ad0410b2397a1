// EdgeServerDaemon — event-loop backends, session lifecycle, admission
// control, malformed input on a live socket, backpressure, and a small
// end-to-end cluster.  The larger determinism / drain assertions live in
// server_integration_test.cpp.
#include "lpvs/server/server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "lpvs/common/io.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/server/event_loop.hpp"
#include "lpvs/server/protocol.hpp"
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

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
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

protocol::Hello hello_for(std::uint64_t user, std::uint64_t cluster,
                          std::uint32_t size, std::uint32_t slots) {
  protocol::Hello hello;
  hello.user_id = user;
  hello.cluster_id = cluster;
  hello.cluster_size = size;
  hello.slots_total = slots;
  return hello;
}

protocol::Report report_for(std::uint32_t slot, double battery = 0.9) {
  protocol::Report report;
  report.slot = slot;
  report.battery_fraction = battery;
  return report;
}

}  // namespace

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

class EventLoopBackends
    : public ::testing::TestWithParam<server::EventLoop::Backend> {};

TEST_P(EventLoopBackends, ReadReadinessAndRemoval) {
  server::EventLoop loop(GetParam());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  ASSERT_TRUE(loop.add(fds[0], true, false).ok());
  EXPECT_EQ(loop.watched(), 1u);

  std::vector<server::LoopEvent> events;
  auto waited = loop.wait(0, events);
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(*waited, 0);  // nothing readable yet

  ASSERT_TRUE(io::write_all(fds[1], "x", 1).ok());
  waited = loop.wait(1000, events);
  ASSERT_TRUE(waited.ok());
  ASSERT_EQ(*waited, 1);
  EXPECT_EQ(events[0].fd, fds[0]);
  EXPECT_TRUE(events[0].readable);

  ASSERT_TRUE(loop.remove(fds[0]).ok());
  EXPECT_EQ(loop.watched(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(EventLoopBackends, WriteInterestToggles) {
  server::EventLoop loop(GetParam());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  ASSERT_TRUE(loop.add(fds[0], false, true).ok());
  std::vector<server::LoopEvent> events;
  auto waited = loop.wait(1000, events);
  ASSERT_TRUE(waited.ok());
  ASSERT_EQ(*waited, 1);
  EXPECT_TRUE(events[0].writable);

  // Drop write interest: an idle writable socket must stop reporting.
  ASSERT_TRUE(loop.modify(fds[0], true, false).ok());
  waited = loop.wait(0, events);
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(*waited, 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(EventLoopBackends, HangupReportsBroken) {
  server::EventLoop loop(GetParam());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(loop.add(fds[0], true, false).ok());
  ::close(fds[1]);
  std::vector<server::LoopEvent> events;
  auto waited = loop.wait(1000, events);
  ASSERT_TRUE(waited.ok());
  ASSERT_EQ(*waited, 1);
  EXPECT_TRUE(events[0].broken || events[0].readable);
  ::close(fds[0]);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopBackends,
                         ::testing::Values(server::EventLoop::Backend::kEpoll,
                                           server::EventLoop::Backend::kPoll));

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

TEST(EdgeServerDaemon, StartsOnEphemeralPortAndStops) {
  server::ServerConfig config;
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());
  EXPECT_TRUE(daemon.running());
  EXPECT_NE(daemon.port(), 0);
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST(EdgeServerDaemon, SingleSessionPlaysSlots) {
  server::ServerConfig config;
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello_for(1, 1, 1, 3))));
  auto ack = read_frame(fd);
  ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  ASSERT_EQ(ack->type, protocol::FrameType::kHelloAck);
  EXPECT_EQ(ack->as<protocol::HelloAck>().next_slot, 0u);

  for (std::uint32_t slot = 0; slot < 3; ++slot) {
    ASSERT_TRUE(send_frame(fd, protocol::make_frame(report_for(slot))));
    auto schedule = read_frame(fd);
    ASSERT_TRUE(schedule.ok()) << schedule.status().to_string();
    ASSERT_EQ(schedule->type, protocol::FrameType::kSchedule);
    EXPECT_EQ(schedule->as<protocol::Schedule>().slot, slot);
    EXPECT_EQ(schedule->as<protocol::Schedule>().cluster_devices, 1u);
    auto grant = read_frame(fd);
    ASSERT_TRUE(grant.ok());
    ASSERT_EQ(grant->type, protocol::FrameType::kGrant);
    EXPECT_EQ(grant->as<protocol::Grant>().slot, slot);
  }

  ASSERT_TRUE(send_frame(fd, protocol::make_frame(protocol::Bye{0})));
  io::close_fd(fd);

  ASSERT_TRUE(daemon.drain(5000).ok());
  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.slots_scheduled, 3);
  EXPECT_EQ(stats.sessions_completed, 1);
  EXPECT_EQ(stats.forced_closes, 0);
}

/// Records each row's energy fraction e / capacity, then schedules like
/// LPVS.  The daemon calls schedule() from its worker threads.
class RecordingScheduler : public core::Scheduler {
 public:
  std::string name() const override { return "recording"; }
  core::Schedule schedule(const core::SlotProblem& problem,
                          const core::RunContext& context) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const core::DeviceSlotInput& row : problem.devices) {
        fractions_.push_back(row.initial_energy_mwh /
                             row.battery_capacity_mwh);
      }
    }
    return scheduler().schedule(problem, context);
  }
  std::vector<double> fractions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fractions_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::vector<double> fractions_;
};

TEST(EdgeServerDaemon, SchedulerSeesTheReportedBatteryFraction) {
  // Phase-2 and scoring evaluate the anxiety at e / capacity, so that
  // ratio must be the fraction the viewer reported: the session-scale
  // capacity factor applies to the energy and the capacity alike.
  const RecordingScheduler recording;
  server::EdgeServerDaemon daemon(server::ServerConfig{}, recording,
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello_for(1, 1, 1, 2))));
  ASSERT_TRUE(read_frame(fd).ok());  // HELLOACK
  const double reported[] = {0.8, 0.35};
  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    ASSERT_TRUE(send_frame(
        fd, protocol::make_frame(report_for(slot, reported[slot]))));
    auto schedule = read_frame(fd);
    ASSERT_TRUE(schedule.ok()) << schedule.status().to_string();
    ASSERT_EQ(schedule->type, protocol::FrameType::kSchedule);
    ASSERT_TRUE(read_frame(fd).ok());  // GRANT
  }
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(protocol::Bye{0})));
  io::close_fd(fd);
  ASSERT_TRUE(daemon.drain(5000).ok());

  const std::vector<double> fractions = recording.fractions();
  ASSERT_EQ(fractions.size(), 2u);
  EXPECT_DOUBLE_EQ(fractions[0], reported[0]);
  EXPECT_DOUBLE_EQ(fractions[1], reported[1]);
}

/// Transforms every device, whatever the capacity rows say.
class AllInScheduler : public core::Scheduler {
 public:
  std::string name() const override { return "all-in"; }
  core::Schedule schedule(const core::SlotProblem& problem,
                          const core::RunContext& context) const override {
    return core::score_selection(
        problem, context.anxiety_model(),
        std::vector<int>(problem.devices.size(), 1));
  }
};

TEST(EdgeServerDaemon, CountsSchedulesThatBreakACapacityRow) {
  // Two viewers on an edge whose compute row fits less than one stream:
  // a scheduler that ignores (6) must show up in the counter.
  const AllInScheduler all_in;
  const server::ServerConfig config = server::ServerConfig{}.with_slot_problem(
      core::SlotProblemConfig{}.with_compute_capacity(0.01));
  server::EdgeServerDaemon daemon(config, all_in, core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int a = connect_to(daemon.port());
  const int b = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(a, protocol::make_frame(hello_for(1, 4, 2, 1))));
  ASSERT_TRUE(send_frame(b, protocol::make_frame(hello_for(2, 4, 2, 1))));
  ASSERT_TRUE(read_frame(a).ok());  // HELLOACK
  ASSERT_TRUE(read_frame(b).ok());
  ASSERT_TRUE(send_frame(a, protocol::make_frame(report_for(0))));
  ASSERT_TRUE(send_frame(b, protocol::make_frame(report_for(0))));
  for (const int fd : {a, b}) {
    auto schedule = read_frame(fd);
    ASSERT_TRUE(schedule.ok()) << schedule.status().to_string();
    EXPECT_EQ(schedule->as<protocol::Schedule>().transform, 1);
    ASSERT_TRUE(read_frame(fd).ok());  // GRANT
    ASSERT_TRUE(send_frame(fd, protocol::make_frame(protocol::Bye{0})));
    io::close_fd(fd);
  }
  ASSERT_TRUE(daemon.drain(5000).ok());

  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.slots_scheduled, 1);
  EXPECT_EQ(stats.capacity_violations, 1);
}

TEST(EdgeServerDaemon, ClusterBarrierWaitsForAllMembers) {
  server::ServerConfig config;
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int a = connect_to(daemon.port());
  const int b = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(a, protocol::make_frame(hello_for(1, 9, 2, 1))));
  ASSERT_TRUE(send_frame(b, protocol::make_frame(hello_for(2, 9, 2, 1))));
  ASSERT_TRUE(read_frame(a).ok());
  ASSERT_TRUE(read_frame(b).ok());

  // Only member 1 reports; no schedule may arrive for it yet.
  ASSERT_TRUE(send_frame(a, protocol::make_frame(report_for(0))));
  EXPECT_EQ(daemon.stats().slots_scheduled, 0);

  // Member 2 reports: the barrier releases and both get their slot.
  ASSERT_TRUE(send_frame(b, protocol::make_frame(report_for(0))));
  auto schedule_a = read_frame(a);
  auto schedule_b = read_frame(b);
  ASSERT_TRUE(schedule_a.ok());
  ASSERT_TRUE(schedule_b.ok());
  EXPECT_EQ(schedule_a->as<protocol::Schedule>().cluster_devices, 2u);
  EXPECT_EQ(schedule_b->as<protocol::Schedule>().cluster_devices, 2u);
  ASSERT_TRUE(read_frame(a).ok());  // grants
  ASSERT_TRUE(read_frame(b).ok());

  ASSERT_TRUE(send_frame(a, protocol::make_frame(protocol::Bye{0})));
  ASSERT_TRUE(send_frame(b, protocol::make_frame(protocol::Bye{0})));
  io::close_fd(a);
  io::close_fd(b);
  EXPECT_TRUE(daemon.drain(5000).ok());
}

TEST(EdgeServerDaemon, AdmissionControlRejectsPastCapacity) {
  server::ServerConfig config;
  config.admission.max_sessions = 1;
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int first = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(first, protocol::make_frame(hello_for(1, 1, 1, 5))));
  auto ack = read_frame(first);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->type, protocol::FrameType::kHelloAck);

  const int second = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(second, protocol::make_frame(hello_for(2, 2, 1, 5))));
  auto rejected = read_frame(second);
  ASSERT_TRUE(rejected.ok()) << rejected.status().to_string();
  ASSERT_EQ(rejected->type, protocol::FrameType::kError);
  EXPECT_EQ(rejected->as<protocol::Error>().code,
            static_cast<std::uint8_t>(common::StatusCode::kResourceExhausted));
  // The server closes after the error frame.
  std::uint8_t byte;
  EXPECT_EQ(io::read_retry(second, &byte, 1).kind,
            io::IoResult::Kind::kEof);
  io::close_fd(second);

  EXPECT_GE(daemon.stats().admission_rejects, 1);

  // The admitted session is unharmed.
  ASSERT_TRUE(send_frame(first, protocol::make_frame(report_for(0))));
  EXPECT_TRUE(read_frame(first).ok());
  io::close_fd(first);
  daemon.stop();
}

TEST(EdgeServerDaemon, MalformedFrameDropsConnectionServerSurvives) {
  server::ServerConfig config;
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  // A corrupted frame: valid HELLO with one payload bit flipped.
  const int bad = connect_to(daemon.port());
  std::vector<std::uint8_t> bytes =
      protocol::encode(protocol::make_frame(hello_for(1, 1, 1, 5)));
  bytes[10] ^= 0x01;
  ASSERT_TRUE(io::write_all(bad, bytes.data(), bytes.size()).ok());
  std::uint8_t byte;
  EXPECT_EQ(io::read_retry(bad, &byte, 1).kind, io::IoResult::Kind::kEof);
  io::close_fd(bad);

  // Pure garbage with a hostile length prefix.
  const int noise = connect_to(daemon.port());
  const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD};
  ASSERT_TRUE(io::write_all(noise, garbage, sizeof(garbage)).ok());
  EXPECT_EQ(io::read_retry(noise, &byte, 1).kind, io::IoResult::Kind::kEof);
  io::close_fd(noise);

  EXPECT_GE(daemon.stats().decode_errors, 2);

  // The daemon still serves new sessions.
  const int good = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(good, protocol::make_frame(hello_for(7, 7, 1, 1))));
  auto ack = read_frame(good);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, protocol::FrameType::kHelloAck);
  io::close_fd(good);
  daemon.stop();
}

TEST(EdgeServerDaemon, NanReportDropsOnlyTheSenderFromItsCluster) {
  // One member of a two-member cluster reports a NaN battery fraction.
  // The frame is malformed: the sender is dropped and counted, and its
  // value never reaches the cluster's solve, so the well-behaved member
  // is still scheduled with a finite objective.
  server::EdgeServerDaemon daemon(server::ServerConfig{}, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int good = connect_to(daemon.port());
  const int hostile = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(good, protocol::make_frame(hello_for(1, 5, 2, 1))));
  ASSERT_TRUE(
      send_frame(hostile, protocol::make_frame(hello_for(2, 5, 2, 1))));
  ASSERT_TRUE(read_frame(good).ok());  // HELLO_ACKs
  ASSERT_TRUE(read_frame(hostile).ok());

  ASSERT_TRUE(send_frame(
      hostile, protocol::make_frame(report_for(
                   0, std::numeric_limits<double>::quiet_NaN()))));
  std::uint8_t byte;
  EXPECT_EQ(io::read_retry(hostile, &byte, 1).kind, io::IoResult::Kind::kEof);
  io::close_fd(hostile);

  ASSERT_TRUE(send_frame(good, protocol::make_frame(report_for(0, 0.15))));
  auto schedule = read_frame(good);
  ASSERT_TRUE(schedule.ok()) << schedule.status().to_string();
  ASSERT_EQ(schedule->type, protocol::FrameType::kSchedule);
  const auto& body = schedule->as<protocol::Schedule>();
  EXPECT_EQ(body.cluster_devices, 1u);
  EXPECT_TRUE(std::isfinite(body.objective));
  EXPECT_TRUE(std::isfinite(body.expected_gamma));
  ASSERT_TRUE(read_frame(good).ok());  // GRANT

  ASSERT_TRUE(send_frame(good, protocol::make_frame(protocol::Bye{0})));
  io::close_fd(good);
  ASSERT_TRUE(daemon.drain(5000).ok());
  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.decode_errors, 1);
  EXPECT_EQ(stats.slots_scheduled, 1);
}

TEST(EdgeServerDaemon, BackpressureClosesNonReadingPeer) {
  server::ServerConfig config;
  config.admission.max_outbound_bytes = 1;  // any queued frame trips the bound
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello_for(1, 1, 1, 5))));
  // The HELLO_ACK alone exceeds the bound; the server must shed us.
  std::uint8_t byte;
  io::IoResult r = io::read_retry(fd, &byte, 1);
  while (r.kind == io::IoResult::Kind::kOk) {
    r = io::read_retry(fd, &byte, 1);
  }
  EXPECT_EQ(r.kind, io::IoResult::Kind::kEof);
  io::close_fd(fd);
  EXPECT_GE(daemon.stats().backpressure_closes, 1);
  daemon.stop();
}

TEST(EdgeServerDaemon, ReportBeforeHelloIsAProtocolError) {
  server::ServerConfig config;
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(report_for(0))));
  auto error = read_frame(fd);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, protocol::FrameType::kError);
  io::close_fd(fd);
  daemon.stop();
}

TEST(EdgeServerDaemon, PollBackendServesEndToEnd) {
  server::ServerConfig config;
  config.listener.backend = server::EventLoop::Backend::kPoll;
  server::EdgeServerDaemon daemon(config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connect_to(daemon.port());
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello_for(3, 3, 1, 2))));
  ASSERT_TRUE(read_frame(fd).ok());
  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    ASSERT_TRUE(send_frame(fd, protocol::make_frame(report_for(slot))));
    ASSERT_TRUE(read_frame(fd).ok());
    ASSERT_TRUE(read_frame(fd).ok());
  }
  ASSERT_TRUE(send_frame(fd, protocol::make_frame(protocol::Bye{0})));
  io::close_fd(fd);
  EXPECT_TRUE(daemon.drain(5000).ok());
  EXPECT_EQ(daemon.stats().slots_scheduled, 2);
}

}  // namespace lpvs
