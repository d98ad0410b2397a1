#include "lpvs/loadgen/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "lpvs/common/io.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/common/wire.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/server/protocol.hpp"
#include "lpvs/streaming/network.hpp"
#include "lpvs/streaming/playout.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs::loadgen {
namespace {

namespace io = common::io;
namespace protocol = server::protocol;

using Clock = std::chrono::steady_clock;

using common::derived_rng;

constexpr std::uint64_t kBatterySalt = 0xBA77uLL;
constexpr std::uint64_t kDrainSalt = 0xD4A1uLL;
constexpr std::uint64_t kDeltaSalt = 0xDE17uLL;
constexpr std::uint64_t kArrivalSalt = 0xA221uLL;
constexpr std::uint64_t kNetSalt = 0x4E37uLL;

/// What one cluster's sessions look like before any byte is sent.
struct ClusterPlan {
  std::uint64_t cluster_id = 0;
  std::uint32_t size = 0;
  std::uint32_t slots = 0;
  std::uint8_t genre = 0;
  double bitrate_mbps = 3.0;
  double arrival_offset_s = 0.0;
};

/// One live client connection.
struct Client {
  int fd = -1;
  std::uint64_t user_id = 0;
  double battery_capacity_mwh = 13000.0;
  double battery_fraction = 1.0;
  double drain_per_slot = 0.05;  ///< battery fraction at power_scale = 1
  bool transformed_last = false;
  bool alive = false;    ///< socket usable
  bool watching = true;  ///< still in the cluster barrier
  std::uint64_t digest = common::wire::kFnvOffsetBasis;
  Clock::time_point report_sent{};
  std::vector<std::uint8_t> rx;  ///< buffered unconsumed socket bytes
  std::size_t rx_off = 0;        ///< consumed prefix of rx

  // The last hop and the playout it feeds: each REPORT carries the buffer
  // level and throughput estimate (the v2 fields the joint ABR solve prices).
  streaming::ThroughputModel net;
  common::Rng net_rng;
  streaming::PlayoutBuffer playout;  ///< two chunks deep; starts at one
  streaming::ThroughputEstimator estimator;
  double granted_bitrate_mbps = 3.0;
};

struct WorkerResult {
  long sessions = 0;
  long completed = 0;
  long gave_up = 0;
  long slots_driven = 0;
  long transport_errors = 0;
  long protocol_errors = 0;
  double startup_delay_s = 0.0;
  double rebuffer_time_s = 0.0;
  long rebuffer_events = 0;
  double granted_bitrate_sum = 0.0;
  std::vector<double> latencies_ms;
  std::map<std::uint64_t, std::uint64_t> digests;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    io::close_fd(fd);
    return -1;
  }
  (void)io::set_tcp_nodelay(fd);
  return fd;
}

bool send_frame(Client& client, const protocol::Frame& frame,
                std::vector<std::uint8_t>& scratch) {
  scratch.clear();
  protocol::encode_into(frame, scratch);
  if (!io::write_all(client.fd, scratch.data(), scratch.size()).ok()) {
    client.alive = false;
    return false;
  }
  return true;
}

/// Blocking buffered fill: ensures `need` unconsumed bytes sit in client.rx.
/// One read(2) usually lands a whole coalesced SCHEDULE+GRANT burst, so the
/// per-frame syscall count drops from two (prefix + payload) to amortized
/// well under one.
common::Status fill(Client& client, std::size_t need) {
  while (client.rx.size() - client.rx_off < need) {
    if (client.rx_off > 0) {
      client.rx.erase(client.rx.begin(),
                      client.rx.begin() +
                          static_cast<std::ptrdiff_t>(client.rx_off));
      client.rx_off = 0;
    }
    std::uint8_t chunk[4096];
    const io::IoResult got = io::read_retry(client.fd, chunk, sizeof(chunk));
    if (!got.ok() || got.count == 0) {
      return common::Status::Unavailable(
          got.kind == io::IoResult::Kind::kEof ? "peer closed the connection"
                                               : "read failed");
    }
    client.rx.insert(client.rx.end(), chunk, chunk + got.count);
  }
  return common::Status::Ok();
}

/// Blocking read of one frame; folds the payload bytes into the client's
/// running digest (length prefix excluded: the digest witnesses *content*).
common::StatusOr<protocol::Frame> read_frame(Client& client) {
  common::Status status = fill(client, 4);
  if (!status.ok()) return status;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(client.rx[client.rx_off +
                                                   static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (length > protocol::kMaxFrameBytes) {
    return common::Status::InvalidArgument("oversized frame from server");
  }
  status = fill(client, 4 + static_cast<std::size_t>(length));
  if (!status.ok()) return status;
  const std::uint8_t* payload = client.rx.data() + client.rx_off + 4;
  client.digest = common::wire::fnv1a(client.digest, payload, length);
  common::StatusOr<protocol::Frame> frame =
      protocol::decode_payload(payload, length);
  client.rx_off += 4 + static_cast<std::size_t>(length);
  if (client.rx_off == client.rx.size()) {
    client.rx.clear();
    client.rx_off = 0;
  }
  return frame;
}

void close_client(Client& client) {
  if (client.fd >= 0) io::close_fd(client.fd);
  client.fd = -1;
  client.alive = false;
}

/// Drives one cluster's whole lifetime (HELLO → slots in lockstep → BYE).
/// `trace_net` non-null = every client replays that trace, phase-shifted
/// by its user id.
void drive_cluster(const LoadGenConfig& config, const ClusterPlan& plan,
                   WorkerResult& result, obs::Histogram* latency_hist,
                   const streaming::ThroughputModel* trace_net) {
  std::vector<Client> clients(plan.size);
  std::vector<std::uint8_t> tx;  // reused encode scratch for every frame

  // --- Connect + HELLO for every member, then read every HELLO_ACK.
  for (std::uint32_t m = 0; m < plan.size; ++m) {
    Client& client = clients[m];
    client.user_id = plan.cluster_id * 1000 + m + 1;
    common::Rng battery_rng =
        derived_rng(config.seed, client.user_id, kBatterySalt);
    client.battery_capacity_mwh = battery_rng.uniform(8000.0, 16000.0);
    common::Rng drain_rng =
        derived_rng(config.seed, client.user_id, kDrainSalt);
    client.drain_per_slot = drain_rng.uniform(0.02, 0.08);

    // Last-hop channel: a private phase of the shared trace, or the
    // synthetic chain off a per-user derived stream.  Three probe samples
    // seed the throughput estimate the first REPORT carries.
    client.net_rng = derived_rng(config.seed, client.user_id, kNetSalt);
    if (trace_net != nullptr) {
      client.net = *trace_net;
      client.net.set_trace_position(static_cast<std::size_t>(
          client.user_id % trace_net->trace().size()));
    }
    client.granted_bitrate_mbps = plan.bitrate_mbps;
    for (int probe = 0; probe < 3; ++probe) {
      client.estimator.push(client.net.sample_mbps(client.net_rng));
    }

    client.fd = connect_loopback(config.port);
    if (client.fd < 0) {
      ++result.transport_errors;
      continue;
    }
    client.alive = true;
    ++result.sessions;

    protocol::Hello hello;
    hello.user_id = client.user_id;
    hello.cluster_id = plan.cluster_id;
    hello.cluster_size = plan.size;
    hello.slots_total = plan.slots;
    hello.battery_capacity_mwh = client.battery_capacity_mwh;
    hello.bitrate_mbps = plan.bitrate_mbps;
    hello.genre = plan.genre;
    hello.giveup_percent = static_cast<std::uint8_t>(
        config.giveup_battery_fraction * 100.0);
    if (!send_frame(client, protocol::make_frame(hello), tx)) {
      ++result.transport_errors;
      close_client(client);
    }
  }
  for (Client& client : clients) {
    if (!client.alive) continue;
    common::StatusOr<protocol::Frame> frame = read_frame(client);
    if (!frame.ok()) {
      ++result.transport_errors;
      close_client(client);
      continue;
    }
    if (frame->type != protocol::FrameType::kHelloAck) {
      ++result.protocol_errors;
      close_client(client);
    }
  }

  // --- Slots, in cluster lockstep: all REPORTs out, then all reads.
  for (std::uint32_t slot = 0; slot < plan.slots; ++slot) {
    bool any = false;
    for (Client& client : clients) {
      if (!client.alive || !client.watching) continue;
      const bool giving_up =
          config.giveup_battery_fraction > 0.0 &&
          client.battery_fraction < config.giveup_battery_fraction;

      protocol::Report report;
      report.slot = slot;
      report.battery_fraction = client.battery_fraction;
      if (client.transformed_last) {
        // The realized power reduction of the previous transformed slot —
        // the Bayes observation, drawn from the Table I band.
        common::Rng delta_rng =
            derived_rng(config.seed, client.user_id,
                        kDeltaSalt + static_cast<std::uint64_t>(slot) * 7919);
        report.observed_delta = delta_rng.uniform(0.13, 0.49);
        report.has_delta = 1;
      }
      report.watching = giving_up ? 0 : 1;
      report.buffer_s = client.playout.level_s();
      report.throughput_mbps = client.estimator.estimate();
      client.report_sent = Clock::now();
      if (!send_frame(client, protocol::make_frame(report), tx)) {
        ++result.transport_errors;
        close_client(client);
        continue;
      }
      if (giving_up) {
        client.watching = false;
        ++result.gave_up;
      } else {
        any = true;
      }
    }
    if (!any) break;

    for (Client& client : clients) {
      if (!client.alive || !client.watching) continue;
      common::StatusOr<protocol::Frame> schedule = read_frame(client);
      if (!schedule.ok()) {
        ++result.transport_errors;
        close_client(client);
        continue;
      }
      const double latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    client.report_sent)
              .count();
      if (schedule->type != protocol::FrameType::kSchedule) {
        ++result.protocol_errors;
        close_client(client);
        continue;
      }
      common::StatusOr<protocol::Frame> grant = read_frame(client);
      if (!grant.ok() || grant->type != protocol::FrameType::kGrant) {
        grant.ok() ? ++result.protocol_errors : ++result.transport_errors;
        close_client(client);
        continue;
      }
      result.latencies_ms.push_back(latency_ms);
      if (latency_hist != nullptr) latency_hist->observe(latency_ms);
      ++result.slots_driven;

      // Battery model: drain scales with the granted power level.
      const auto& g = grant->as<protocol::Grant>();
      client.battery_fraction = std::max(
          0.0,
          client.battery_fraction - client.drain_per_slot * g.power_scale);
      const auto& sched = schedule->as<protocol::Schedule>();
      client.transformed_last = sched.transform != 0;

      // Play the granted slot: an ABR-enabled server governs the bitrate
      // (bitrate_mbps > 0); otherwise the client keeps its current rate.
      if (sched.bitrate_mbps > 0.0) {
        client.granted_bitrate_mbps = sched.bitrate_mbps;
      }
      result.granted_bitrate_sum += client.granted_bitrate_mbps;
      // A daemon grants one chunk length per session; a change starts afresh.
      if (client.playout.chunk_seconds() != g.chunk_seconds) {
        client.playout = streaming::PlayoutBuffer(
            g.chunk_seconds, 2.0 * g.chunk_seconds, g.chunk_seconds);
      }
      for (std::uint32_t k = 0; k < g.chunks; ++k) {
        const double throughput = client.net.sample_mbps(client.net_rng);
        client.estimator.push(throughput);
        const streaming::PlayoutStep step = client.playout.step(
            client.granted_bitrate_mbps * g.chunk_seconds / throughput);
        result.startup_delay_s += step.startup_s;
        result.rebuffer_time_s += step.stalled_s;
        result.rebuffer_events += step.new_freeze;
      }
    }
  }

  // --- Orderly close for everyone still connected.
  for (Client& client : clients) {
    if (!client.alive) continue;
    protocol::Bye bye;
    bye.reason = client.watching ? 0 : 1;
    if (send_frame(client, protocol::make_frame(bye), tx)) ++result.completed;
    result.digests[client.user_id] = client.digest;
    close_client(client);
  }
  // Sessions that died mid-flight still witnessed some payload bytes.
  for (Client& client : clients) {
    if (client.user_id != 0 && result.digests.count(client.user_id) == 0 &&
        client.digest != common::wire::kFnvOffsetBasis) {
      result.digests[client.user_id] = client.digest;
    }
  }
}

}  // namespace

common::StatusOr<LoadGenReport> run_load(const LoadGenConfig& config) {
  if (config.port == 0) {
    return common::Status::InvalidArgument("load generator needs a port");
  }
  if (config.clusters == 0 || config.cluster_size == 0 || config.slots == 0) {
    return common::Status::InvalidArgument("empty fleet");
  }
  const std::uint32_t threads = std::max(1u, config.threads);

  // --- Plan every cluster up front (content/arrival independent of the
  // --- worker that ends up carrying it).
  std::vector<ClusterPlan> plans(config.clusters);
  trace::Trace replay;
  if (config.use_trace) {
    trace::TraceConfig trace_config;
    trace_config.channel_count =
        std::max(16, static_cast<int>(config.clusters / 4 + 1));
    trace_config.session_count = static_cast<int>(config.clusters);
    replay = trace::TwitchLikeGenerator(trace_config).generate(config.seed);
  }
  common::Rng arrival_rng = derived_rng(config.seed, kArrivalSalt, 0);
  double arrival_s = 0.0;
  for (std::uint32_t c = 0; c < config.clusters; ++c) {
    ClusterPlan& plan = plans[c];
    plan.cluster_id = c + 1;
    plan.size = config.cluster_size;
    plan.slots = config.slots;
    if (config.use_trace && c < replay.sessions().size()) {
      const trace::Session& session = replay.sessions()[c];
      plan.slots = std::max<std::uint32_t>(
          1, std::min<std::uint32_t>(
                 config.slots,
                 static_cast<std::uint32_t>(session.duration_slots())));
      const trace::Channel& channel = replay.channel(session.channel);
      plan.genre = static_cast<std::uint8_t>(channel.genre);
      plan.bitrate_mbps = channel.bitrate_mbps;
    } else {
      common::Rng genre_rng = derived_rng(config.seed, 0x6E47, c);
      plan.genre =
          static_cast<std::uint8_t>(genre_rng.uniform_int(0,
                                                          media::kGenreCount - 1));
      plan.bitrate_mbps = genre_rng.uniform(2.0, 6.0);
    }
    if (config.arrival_rate_per_s > 0.0) {
      arrival_s +=
          -std::log(1.0 - arrival_rng.uniform()) / config.arrival_rate_per_s;
      plan.arrival_offset_s = arrival_s;
    }
  }

  io::ignore_sigpipe();

  // A shared throughput trace, loaded once; clients copy it and replay
  // their own phase.  A bad path or unusable trace fails the run up front.
  streaming::ThroughputModel trace_model;
  const streaming::ThroughputModel* trace_net = nullptr;
  if (!config.throughput_trace.empty()) {
    common::StatusOr<streaming::ThroughputModel> loaded =
        streaming::ThroughputModel::from_trace_file(config.throughput_trace,
                                                    config.metrics);
    if (!loaded.ok()) return loaded.status();
    trace_model = std::move(loaded).value();
    trace_net = &trace_model;
  }

  obs::Histogram* latency_hist = nullptr;
  if (config.metrics != nullptr) {
    latency_hist = &config.metrics->histogram(
        "lpvs_loadgen_request_schedule_ms",
        obs::MetricsRegistry::time_buckets_ms(),
        "client-observed REPORT to SCHEDULE latency");
  }

  // --- Workers: cluster c belongs to worker c % threads; each worker
  // --- drives its clusters sequentially in arrival order.
  std::vector<WorkerResult> results(threads);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (std::uint32_t c = w; c < config.clusters; c += threads) {
        if (plans[c].arrival_offset_s > 0.0) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              plans[c].arrival_offset_s)));
        }
        drive_cluster(config, plans[c], results[w], latency_hist, trace_net);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // --- Merge.
  LoadGenReport report;
  std::vector<double> latencies;
  double granted_bitrate_sum = 0.0;
  for (WorkerResult& result : results) {
    report.sessions += result.sessions;
    report.completed += result.completed;
    report.gave_up += result.gave_up;
    report.slots_driven += result.slots_driven;
    report.transport_errors += result.transport_errors;
    report.protocol_errors += result.protocol_errors;
    report.startup_delay_s += result.startup_delay_s;
    report.rebuffer_time_s += result.rebuffer_time_s;
    report.rebuffer_events += result.rebuffer_events;
    granted_bitrate_sum += result.granted_bitrate_sum;
    latencies.insert(latencies.end(), result.latencies_ms.begin(),
                     result.latencies_ms.end());
    for (const auto& [user, digest] : result.digests) {
      report.digests[user] = digest;
    }
  }
  if (report.slots_driven > 0) {
    report.mean_granted_bitrate_mbps =
        granted_bitrate_sum / static_cast<double>(report.slots_driven);
  }
  report.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  report.latency_samples = static_cast<long>(latencies.size());
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto at = [&](double q) {
      const auto index = static_cast<std::size_t>(
          q * static_cast<double>(latencies.size() - 1));
      return latencies[index];
    };
    report.latency_p50_ms = at(0.50);
    report.latency_p99_ms = at(0.99);
  }
  return report;
}

}  // namespace lpvs::loadgen
