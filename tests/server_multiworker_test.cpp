// Multi-reactor determinism and drain behavior.
//
// The sharded daemon's core promise: worker count is a pure deployment
// knob.  The schedule payload bytes a session receives are a function of
// (seed, cluster composition, reported state) — never of how many reactors
// serve the fleet or how client threads interleave on the wire.  These
// tests run the same fleet at 1/2/8 workers x 2/8 client threads and
// assert every per-session FNV digest is bit-identical, then exercise
// drain while load is in flight at 4 workers.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
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

/// The per-session payload digests of the seed-63 fleet below, folded in
/// user order.  Pinned so a change to slot assembly or scheduling that
/// moves every worker count alike still shows.
constexpr std::uint64_t kPayloadDigest = 0xBF4ACBCF55F6C89FULL;

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

std::map<std::uint64_t, std::uint64_t> digests_at(
    std::uint32_t workers, std::uint32_t threads,
    server::EventLoop::Backend backend = server::EventLoop::Backend::kAuto) {
  const server::ServerConfig server_config = server::ServerConfig{}
                                                 .with_seed(63)
                                                 .with_workers(workers)
                                                 .with_backend(backend);
  server::EdgeServerDaemon daemon(server_config, scheduler(),
                                  core::RunContext(anxiety()));
  EXPECT_TRUE(daemon.start().ok());

  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 8;
  load.cluster_size = 4;
  load.slots = 30;
  load.threads = threads;
  load.seed = 63;

  auto report = loadgen::run_load(load);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(daemon.drain(10000).ok());
  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.sessions_completed, 32);
  EXPECT_EQ(stats.forced_closes, 0);
  EXPECT_EQ(stats.capacity_violations, 0);
  return report.ok() ? report->digests
                     : std::map<std::uint64_t, std::uint64_t>{};
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

}  // namespace

TEST(MultiWorker, PayloadsBitIdenticalAcrossWorkerAndThreadCounts) {
  // Every (workers, client threads) combination must produce the same
  // per-session payload digests: sharding moves sessions between reactors,
  // never changes the bytes they receive.
  const std::map<std::uint64_t, std::uint64_t> reference = digests_at(1, 2);
  ASSERT_EQ(reference.size(), 32u);
  EXPECT_EQ(fold_digests(reference), kPayloadDigest)
      << std::hex << fold_digests(reference);

  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    for (const std::uint32_t threads : {2u, 8u}) {
      if (workers == 1 && threads == 2) continue;  // the reference itself
      const std::map<std::uint64_t, std::uint64_t> digests =
          digests_at(workers, threads);
      EXPECT_EQ(digests, reference)
          << "digests diverged at workers=" << workers
          << " threads=" << threads;
    }
  }
}

TEST(MultiWorker, PayloadsBitIdenticalAcrossPollBackend) {
  // Same fleet, poll readiness instead of epoll: the backend is a pure
  // transport knob at every worker count.
  const std::map<std::uint64_t, std::uint64_t> reference =
      digests_at(1, 2, server::EventLoop::Backend::kEpoll);
  ASSERT_EQ(reference.size(), 32u);
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    const std::map<std::uint64_t, std::uint64_t> digests =
        digests_at(workers, 4, server::EventLoop::Backend::kPoll);
    EXPECT_EQ(digests, reference)
        << "poll backend digests diverged at workers=" << workers;
  }
}

TEST(MultiWorker, PayloadsBitIdenticalAcrossUringBackend) {
  if (!server::EventLoop::uring_supported()) {
    GTEST_SKIP() << "[SKIPPED: no io_uring] kernel/sandbox lacks io_uring";
  }
  // io_uring batches the data-path syscalls; the bytes each session
  // receives must not move by a bit at any worker count.
  const std::map<std::uint64_t, std::uint64_t> reference =
      digests_at(1, 2, server::EventLoop::Backend::kEpoll);
  ASSERT_EQ(reference.size(), 32u);
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    const std::map<std::uint64_t, std::uint64_t> digests =
        digests_at(workers, 4, server::EventLoop::Backend::kUring);
    EXPECT_EQ(digests, reference)
        << "uring backend digests diverged at workers=" << workers;
  }
}

TEST(MultiWorker, DrainUnderLoadFinishesEverySessionOrderly) {
  // drain() is called while the fleet is still mid-slot on 4 workers: the
  // daemon must stop accepting, let every live session play out its
  // declared slots, and end with zero forced closes.
  const server::ServerConfig server_config =
      server::ServerConfig{}.with_seed(17).with_workers(4);
  server::EdgeServerDaemon daemon(server_config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  loadgen::LoadGenConfig load;
  load.port = daemon.port();
  load.clusters = 8;
  load.cluster_size = 4;
  load.slots = 50;
  load.threads = 4;
  load.seed = 17;

  common::Status load_status = common::Status::Ok();
  loadgen::LoadGenReport report;
  std::thread driver([&] {
    auto result = loadgen::run_load(load);
    if (result.ok()) {
      report = *result;
    } else {
      load_status = result.status();
    }
  });

  // Wait until the whole fleet is connected, then drain mid-flight.
  while (daemon.stats().accepted < 32) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const common::Status drained = daemon.drain(30000);
  driver.join();

  EXPECT_TRUE(drained.ok()) << drained.to_string();
  EXPECT_TRUE(load_status.ok()) << load_status.to_string();
  EXPECT_EQ(report.completed, 32);
  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.sessions_completed, 32);
  EXPECT_EQ(stats.forced_closes, 0);
  EXPECT_EQ(stats.capacity_violations, 0);
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.slots_scheduled, 8L * 50L);
}

TEST(MultiWorker, DrainTimeoutForceClosesStragglers) {
  // Sessions that HELLO and then go silent must be cut at the drain
  // deadline — the event-driven timeout path, one straggler per worker.
  const server::ServerConfig server_config =
      server::ServerConfig{}.with_seed(3).with_workers(4);
  server::EdgeServerDaemon daemon(server_config, scheduler(),
                                  core::RunContext(anxiety()));
  ASSERT_TRUE(daemon.start().ok());

  std::vector<int> fds;
  for (std::uint64_t c = 0; c < 4; ++c) {
    const int fd = connect_to(daemon.port());
    protocol::Hello hello;
    hello.user_id = 100 + c;
    hello.cluster_id = c;  // lands on worker c % 4
    hello.cluster_size = 1;
    hello.slots_total = 5;
    ASSERT_TRUE(send_frame(fd, protocol::make_frame(hello)));
    auto ack = read_frame(fd);
    ASSERT_TRUE(ack.ok()) << ack.status().to_string();
    ASSERT_EQ(ack->type, protocol::FrameType::kHelloAck);
    fds.push_back(fd);
  }

  const common::Status drained = daemon.drain(200);
  EXPECT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), common::StatusCode::kDeadlineExceeded);

  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.forced_closes, 4);
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.sessions_completed, 0);
  for (const int fd : fds) io::close_fd(fd);
}

}  // namespace lpvs
