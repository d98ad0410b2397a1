#include "lpvs/server/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "lpvs/common/io.hpp"
#include "worker.hpp"

namespace lpvs::server {
namespace {

namespace io = common::io;
using internal::ConnectionHandoff;
using internal::LocalCounters;
using internal::SharedControl;
using internal::Worker;

}  // namespace

ServerStats ServerStats::from_snapshot(const obs::MetricsSnapshot& snapshot) {
  ServerStats out;
  for (const internal::CounterSpec& spec : internal::kCounterSpecs) {
    if (spec.stat != nullptr) {
      out.*spec.stat = snapshot.counter_value(spec.name);
    }
  }
  out.active =
      static_cast<long>(snapshot.gauge_value("lpvs_server_active_sessions"));
  return out;
}

/// The dispatcher: accepts, reads each connection's first frame, applies
/// admission control, and routes admitted sessions to the worker that owns
/// their cluster.  Owns no session state beyond the pre-HELLO window.
class EdgeServerDaemon::Impl {
 public:
  Impl(ServerConfig config, const core::Scheduler& scheduler,
       core::RunContext context)
      : config_(std::move(config)), scheduler_(scheduler), context_(context) {
    // The daemon manages its own per-cluster caches and runs no fault
    // injection of its own; scrub those capabilities off the base context.
    context_.solve_cache = nullptr;
    context_.faults = nullptr;
    if (config_.listener.workers == 0) config_.listener.workers = 1;

    // The registry is the single source of truth for counters: an attached
    // one when the caller provided it, a private one otherwise, so stats()
    // has exactly one code path.
    registry_ = context_.metrics != nullptr ? context_.metrics
                                            : &owned_registry_;
    for (int i = 0; i < internal::kNumCounters; ++i) {
      const internal::CounterSpec& spec =
          internal::kCounterSpecs[static_cast<std::size_t>(i)];
      counters_[i] = &registry_->counter(spec.name, spec.help);
    }
    m_active_ = &registry_->gauge("lpvs_server_active_sessions",
                                  "currently open sessions");
    m_schedule_ms_ = &registry_->histogram(
        "lpvs_server_schedule_ms", obs::MetricsRegistry::time_buckets_ms(),
        "per-cluster slot scheduling wall time");
    m_batch_occupancy_ = &registry_->histogram(
        "lpvs_io_batch_occupancy",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0},
        "ops per submission-queue flush (worker data path)");
  }

  ~Impl() {
    request_stop();
    join_all();
    shutdown_fds();
  }

  common::Status start(std::uint16_t& bound_port) {
    const int chunks = config_.slot.chunks_per_slot;
    if (chunks < 0 ||
        static_cast<std::uint32_t>(chunks) > protocol::kMaxGrantChunks) {
      return common::Status::InvalidArgument(
          "chunks_per_slot does not fit in a GRANT");
    }
    io::ignore_sigpipe();

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return common::Status::Unavailable("socket: " +
                                         std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.listener.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return common::Status::Unavailable("bind: " +
                                         std::string(std::strerror(errno)));
    }
    if (::listen(listen_fd_, config_.listener.backlog) < 0) {
      return common::Status::Unavailable("listen: " +
                                         std::string(std::strerror(errno)));
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) < 0) {
      return common::Status::Internal("getsockname failed");
    }
    bound_port = ntohs(addr.sin_port);

    common::Status status = io::set_nonblocking(listen_fd_);
    if (!status.ok()) return status;

    if (::pipe(wake_pipe_) < 0) {
      return common::Status::Internal("pipe: " +
                                      std::string(std::strerror(errno)));
    }
    (void)io::set_nonblocking(wake_pipe_[0]);
    (void)io::set_nonblocking(wake_pipe_[1]);

    loop_ = std::make_unique<EventLoop>(config_.listener.backend);
    if (loop_->fell_back()) {
      counters_block_.add(internal::kIoBackendFallback);
    }
    status = loop_->add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
    if (!status.ok()) return status;
    status = loop_->add(wake_pipe_[0], true, false);
    if (!status.ok()) return status;

    workers_.reserve(config_.listener.workers);
    for (std::uint32_t i = 0; i < config_.listener.workers; ++i) {
      workers_.push_back(std::make_unique<Worker>(
          config_, scheduler_, context_, control_, m_schedule_ms_,
          m_batch_occupancy_));
      status = workers_.back()->start();
      if (!status.ok()) {
        // Unwind whatever already started.
        control_.stopping.store(true, std::memory_order_release);
        for (auto& worker : workers_) worker->wake();
        for (auto& worker : workers_) worker->join();
        workers_.clear();
        control_.stopping.store(false, std::memory_order_release);
        return status;
      }
    }

    dispatcher_ = std::thread([this] { run_dispatcher(); });
    return common::Status::Ok();
  }

  void request_drain(int timeout_ms) {
    control_.drain_deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeout_ms);
    control_.draining.store(true, std::memory_order_release);
    wake();
    for (auto& worker : workers_) worker->wake();
  }

  void request_stop() {
    control_.stopping.store(true, std::memory_order_release);
    wake();
    for (auto& worker : workers_) worker->wake();
  }

  void join_all() {
    if (dispatcher_.joinable()) dispatcher_.join();
    for (auto& worker : workers_) worker->join();
    // An immediate stop can strand routed-but-not-adopted sockets in the
    // handoff rings; with every thread joined, closing them is race-free.
    for (auto& worker : workers_) (void)worker->close_abandoned();
    fold();
  }

  bool drain_forced() const {
    return control_.drain_forced.load(std::memory_order_acquire);
  }

  ServerStats stats() const {
    fold();
    return ServerStats::from_snapshot(registry_->snapshot());
  }

 private:
  /// A connection the dispatcher still owns: accepted, first frame not yet
  /// complete (or an ERROR still flushing).  Pooled like worker sessions.
  struct Pending {
    int fd = -1;
    protocol::FrameDecoder decoder;
    std::vector<std::uint8_t> outbound;
    std::size_t out_offset = 0;
    bool want_write = false;
    bool close_after_flush = false;
    bool orderly = false;

    void reset() {
      fd = -1;
      decoder.reset();
      outbound.clear();
      out_offset = 0;
      want_write = false;
      close_after_flush = false;
      orderly = false;
    }
  };

  // ---- Dispatcher loop ----------------------------------------------------

  void run_dispatcher() {
    std::vector<LoopEvent> events;
    bool accepting = true;
    for (;;) {
      if (control_.stopping.load(std::memory_order_acquire)) break;
      int timeout_ms = -1;
      if (control_.draining.load(std::memory_order_acquire)) {
        if (accepting) {
          (void)loop_->remove(listen_fd_);
          io::close_fd(listen_fd_);
          listen_fd_ = -1;
          accepting = false;
        }
        if (pending_.empty()) break;
        const auto now = std::chrono::steady_clock::now();
        if (now >= control_.drain_deadline) {
          control_.drain_forced.store(true, std::memory_order_release);
          break;
        }
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                control_.drain_deadline - now)
                .count();
        timeout_ms = static_cast<int>(std::max<long long>(1, remaining));
      }

      common::StatusOr<int> waited = loop_->wait(timeout_ms, events);
      if (!waited.ok()) break;

      for (const LoopEvent& event : events) {
        if (event.fd == wake_pipe_[0]) {
          drain_wake_pipe();
          continue;
        }
        if (event.fd == listen_fd_ && accepting) {
          accept_ready();
          continue;
        }
        auto it = pending_.find(event.fd);
        if (it == pending_.end()) continue;  // routed or closed this batch
        Pending* conn = it->second;
        if (event.broken) {
          close_pending(conn, /*orderly=*/false);
          continue;
        }
        if (event.readable) {
          handle_readable(conn);
          if (pending_.find(event.fd) == pending_.end()) continue;
        }
        if (event.writable) flush_pending(conn);
      }
      counters_block_.add_io(loop_->io_stats(), io_seen_);
    }

    // Exit: connections still waiting on their first frame are cut short.
    const long leftover = static_cast<long>(pending_.size());
    if (leftover > 0) counters_block_.add(internal::kForcedCloses, leftover);
    while (!pending_.empty()) {
      close_pending(pending_.begin()->second, /*orderly=*/false);
    }
    counters_block_.add_io(loop_->io_stats(), io_seen_);
    // After this store (release), no further ring pushes can happen; workers
    // acquire it before concluding their ring is dry.
    control_.dispatcher_done.store(true, std::memory_order_release);
    for (auto& worker : workers_) worker->wake();
  }

  void wake() {
    if (wake_pipe_[1] >= 0) {
      const std::uint8_t byte = 1;
      (void)io::write_retry(wake_pipe_[1], &byte, 1);
    }
  }

  void drain_wake_pipe() {
    std::uint8_t sink[64];
    while (io::read_retry(wake_pipe_[0], sink, sizeof(sink)).ok()) {
    }
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept failure: try next wakeup
      }
      if (!io::set_nonblocking(fd).ok()) {
        io::close_fd(fd);
        continue;
      }
      (void)io::set_tcp_nodelay(fd);
      Pending* conn = pending_pool_.acquire();
      conn->fd = fd;
      conn->decoder.set_limit(config_.admission.max_frame_bytes);
      if (!loop_->add(fd, true, false).ok()) {
        io::close_fd(fd);
        pending_pool_.release(conn);
        continue;
      }
      pending_[fd] = conn;
      control_.open_connections.fetch_add(1);
      counters_block_.add(internal::kAccepted);
    }
  }

  /// One data-path op through the loop's submission queue.  The dispatcher
  /// handles one first-frame per connection lifetime, so there is nothing
  /// to coalesce — it still routes through the same API as the workers so
  /// its syscalls land in the same lpvs_io_* ledger.
  io::IoResult submit_one(bool is_write, int fd, void* buf, std::size_t len) {
    if (is_write) {
      const struct iovec iov{buf, len};
      loop_->submit_writev(fd, &iov, 1, 0);
    } else {
      loop_->submit_read(fd, buf, len, 0);
    }
    io_scratch_.clear();
    (void)loop_->flush(io_scratch_);
    return io_scratch_.back().result;
  }

  void handle_readable(Pending* conn) {
    std::uint8_t buffer[4096];
    bool hung_up = false;
    for (;;) {
      const io::IoResult r =
          submit_one(/*is_write=*/false, conn->fd, buffer, sizeof(buffer));
      if (r.kind == io::IoResult::Kind::kOk) {
        conn->decoder.feed(buffer, r.count);
        if (r.count < sizeof(buffer)) break;
        continue;
      }
      if (r.kind == io::IoResult::Kind::kWouldBlock) break;
      hung_up = true;  // buffered frames are still decoded before the close
      break;
    }
    const int fd = conn->fd;

    if (!conn->close_after_flush) {
      protocol::FrameDecoder::Result result = conn->decoder.next();
      if (result.kind == protocol::FrameDecoder::Result::Kind::kError) {
        counters_block_.add(internal::kDecodeErrors);
        close_pending(conn, /*orderly=*/false);
        return;
      }
      if (result.kind == protocol::FrameDecoder::Result::Kind::kFrame) {
        counters_block_.add(internal::kFramesRx);
        handle_first_frame(conn, result.frame);
        if (pending_.find(fd) == pending_.end()) return;  // routed or closed
      }
    }
    if (hung_up) {
      auto it = pending_.find(fd);
      if (it != pending_.end()) close_pending(it->second, /*orderly=*/false);
    }
  }

  /// Acts on a connection's first frame: HELLO → admission + route, BYE →
  /// orderly close, anything else → protocol error.
  void handle_first_frame(Pending* conn, const protocol::Frame& frame) {
    switch (frame.type) {
      case protocol::FrameType::kHello:
        route_hello(conn, frame.as<protocol::Hello>());
        return;
      case protocol::FrameType::kBye:
        conn->orderly = true;
        close_pending(conn, /*orderly=*/true);
        return;
      case protocol::FrameType::kReport:
        (void)fail_pending(conn, common::StatusCode::kInvalidArgument,
                           "REPORT before HELLO");
        return;
      case protocol::FrameType::kHelloAck:
      case protocol::FrameType::kSchedule:
      case protocol::FrameType::kGrant:
      case protocol::FrameType::kError:
        (void)fail_pending(conn, common::StatusCode::kInvalidArgument,
                           "client sent a server-only frame");
        return;
    }
    (void)fail_pending(conn, common::StatusCode::kInvalidArgument,
                       "unknown frame type");
  }

  void route_hello(Pending* conn, const protocol::Hello& hello) {
    // open_connections counts this connection already, so the check reads
    // "would admitting leave more than max_sessions open" — the same
    // boundary the single-reactor daemon enforced.
    if (control_.open_connections.load(std::memory_order_relaxed) >
        static_cast<long>(config_.admission.max_sessions)) {
      counters_block_.add(internal::kAdmissionRejects);
      (void)fail_pending(conn, common::StatusCode::kResourceExhausted,
                         "session limit reached");
      return;
    }
    if (hello.cluster_size == 0 ||
        hello.cluster_size > config_.admission.max_cluster_size) {
      (void)fail_pending(conn, common::StatusCode::kInvalidArgument,
                         "cluster size out of range");
      return;
    }

    // Shard by cluster: every member of a cluster lands on the same worker,
    // which is what keeps barrier and solve state thread-local.
    Worker* worker =
        workers_[hello.cluster_id % workers_.size()].get();
    ConnectionHandoff handoff;
    handoff.fd = conn->fd;
    handoff.hello = hello;
    handoff.leftover = conn->decoder.take_unconsumed();

    (void)loop_->remove(conn->fd);
    if (!worker->submit(std::move(handoff))) {
      // Ring full: reject instead of queueing without bound.
      (void)loop_->add(conn->fd, true, false);
      counters_block_.add(internal::kAdmissionRejects);
      (void)fail_pending(conn, common::StatusCode::kUnavailable,
                         "worker handoff queue full");
      return;
    }
    worker->wake();
    counters_block_.add(internal::kHandoffs);
    pending_.erase(conn->fd);  // the socket now belongs to the worker
    conn->fd = -1;
    pending_pool_.release(conn);
  }

  bool fail_pending(Pending* conn, common::StatusCode code,
                    std::string message) {
    counters_block_.add(internal::kProtocolErrors);
    protocol::Error error;
    error.code = static_cast<std::uint8_t>(code);
    error.message = std::move(message);
    protocol::encode_into(protocol::make_frame(error), conn->outbound);
    conn->close_after_flush = true;
    flush_pending(conn);
    return false;
  }

  bool flush_pending(Pending* conn) {
    while (conn->out_offset < conn->outbound.size()) {
      const io::IoResult r =
          submit_one(/*is_write=*/true, conn->fd,
                     conn->outbound.data() + conn->out_offset,
                     conn->outbound.size() - conn->out_offset);
      if (r.kind == io::IoResult::Kind::kOk && r.count > 0) {
        conn->out_offset += r.count;
        continue;
      }
      if (r.kind == io::IoResult::Kind::kWouldBlock ||
          r.kind == io::IoResult::Kind::kOk) {  // 0-byte acceptance: park
        if (!conn->want_write) {
          conn->want_write = true;
          (void)loop_->modify(conn->fd, true, true);
        }
        return true;
      }
      close_pending(conn, /*orderly=*/false);
      return false;
    }
    conn->outbound.clear();
    conn->out_offset = 0;
    if (conn->close_after_flush) {
      close_pending(conn, conn->orderly);
      return false;
    }
    if (conn->want_write) {
      conn->want_write = false;
      (void)loop_->modify(conn->fd, true, false);
    }
    return true;
  }

  void close_pending(Pending* conn, bool orderly) {
    if (orderly) counters_block_.add(internal::kCompleted);
    (void)loop_->remove(conn->fd);
    io::close_fd(conn->fd);
    pending_.erase(conn->fd);
    pending_pool_.release(conn);
    control_.open_connections.fetch_sub(1);
  }

  void shutdown_fds() {
    io::close_fd(listen_fd_);
    io::close_fd(wake_pipe_[0]);
    io::close_fd(wake_pipe_[1]);
    listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
  }

  // ---- Metrics fold -------------------------------------------------------

  /// Pushes every thread-local counter delta into the registry.  Safe while
  /// the daemon runs (owning threads add with relaxed atomics; `published`
  /// is guarded by the fold mutex) and after it stops.
  void fold() const {
    std::lock_guard<std::mutex> lock(fold_mutex_);
    fold_block(counters_block_);
    for (const auto& worker : workers_) fold_block(worker->counters());
    m_active_->set(
        static_cast<double>(control_.open_connections.load()));
  }

  void fold_block(LocalCounters& block) const {
    for (int i = 0; i < internal::kNumCounters; ++i) {
      const auto index = static_cast<std::size_t>(i);
      const long current = block.value[index].load(std::memory_order_relaxed);
      const long delta = current - block.published[index];
      if (delta != 0) {
        counters_[index]->add(delta);
        block.published[index] = current;
      }
    }
  }

  ServerConfig config_;
  const core::Scheduler& scheduler_;
  core::RunContext context_;

  obs::MetricsRegistry owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* counters_[internal::kNumCounters] = {};
  obs::Gauge* m_active_ = nullptr;
  obs::Histogram* m_schedule_ms_ = nullptr;
  obs::Histogram* m_batch_occupancy_ = nullptr;
  mutable std::mutex fold_mutex_;
  mutable LocalCounters counters_block_;  ///< the dispatcher's slab
  std::vector<IoOutcome> io_scratch_;     ///< dispatcher submit_one results
  IoStats io_seen_;  ///< loop stats already added to the dispatcher's slab

  SharedControl control_;
  std::vector<std::unique_ptr<Worker>> workers_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::unique_ptr<EventLoop> loop_;
  std::thread dispatcher_;

  common::ObjectPool<Pending> pending_pool_;
  std::map<int, Pending*> pending_;
};

EdgeServerDaemon::EdgeServerDaemon(ServerConfig config,
                                   const core::Scheduler& scheduler,
                                   core::RunContext context)
    : impl_(std::make_unique<Impl>(std::move(config), scheduler, context)) {}

EdgeServerDaemon::~EdgeServerDaemon() { stop(); }

common::Status EdgeServerDaemon::start() {
  if (running_.load(std::memory_order_acquire)) {
    return common::Status::InvalidArgument("daemon already running");
  }
  const common::Status status = impl_->start(port_);
  if (status.ok()) running_.store(true, std::memory_order_release);
  return status;
}

common::Status EdgeServerDaemon::drain(int timeout_ms) {
  if (!running_.load(std::memory_order_acquire)) return common::Status::Ok();
  impl_->request_drain(timeout_ms);
  impl_->join_all();
  running_.store(false, std::memory_order_release);
  if (impl_->drain_forced()) {
    return common::Status::DeadlineExceeded(
        "drain timed out; remaining sessions were force-closed");
  }
  return common::Status::Ok();
}

void EdgeServerDaemon::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  impl_->request_stop();
  impl_->join_all();
  running_.store(false, std::memory_order_release);
}

ServerStats EdgeServerDaemon::stats() const { return impl_->stats(); }

}  // namespace lpvs::server
