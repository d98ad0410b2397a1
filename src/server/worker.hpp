// Internal machinery of the multi-reactor EdgeServerDaemon: the worker
// reactor, the dispatcher→worker handoff record, the shared control block,
// and the thread-local counter slabs the metrics fold reads.
//
// This header is private to src/server — the public surface is server.hpp.
//
// Share-nothing layout: each Worker owns an event loop, the connections of
// its shard, the clusters those connections form (barrier state + solve
// cache), a connection pool, and slot-problem scratch buffers.  The only
// cross-thread traffic is the SPSC handoff ring (dispatcher → worker), the
// wake pipes, and a handful of shared atomics (session count, drain/stop
// flags).  Everything on the per-frame path is thread-local.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lpvs/abr/joint.hpp"
#include "lpvs/bayes/gamma_estimator.hpp"
#include "lpvs/common/pool.hpp"
#include "lpvs/common/ring.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/core/slot_kernel.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/server/config.hpp"
#include "lpvs/server/event_loop.hpp"
#include "lpvs/server/protocol.hpp"
#include "lpvs/server/server.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::server::internal {

/// Salt of the common::derived_rng stream a user's panel spec is drawn from.
inline constexpr std::uint64_t kDeviceSalt = 0xD15CuLL;

/// Everything the daemon counts, indexed so the fold loop is table-driven.
enum CounterId : int {
  kAccepted = 0,
  kAdmissionRejects,
  kDecodeErrors,
  kProtocolErrors,
  kBackpressureCloses,
  kFramesRx,
  kFramesTx,
  kSlots,
  kCompleted,
  kForcedCloses,
  kShed,
  kCapacityViolations,
  kHandoffs,
  kIoSyscalls,
  kIoReadSyscalls,
  kIoWriteSyscalls,
  kIoUringEnters,
  kIoSubmissions,
  kIoFlushes,
  kIoBackendFallback,
  kNumCounters,
};

struct CounterSpec {
  const char* name;
  const char* help;
  /// The ServerStats field the counter reads back into (null: none).
  long ServerStats::*stat;
};

/// Registry names and ServerStats fields for each CounterId, in enum order.
inline constexpr std::array<CounterSpec, kNumCounters> kCounterSpecs = {{
    {"lpvs_server_accepted_total", "connections accepted",
     &ServerStats::accepted},
    {"lpvs_server_admission_rejects_total", "sessions rejected at HELLO",
     &ServerStats::admission_rejects},
    {"lpvs_server_decode_errors_total", "malformed frames dropped",
     &ServerStats::decode_errors},
    {"lpvs_server_protocol_errors_total",
     "sessions failed for a protocol violation",
     &ServerStats::protocol_errors},
    {"lpvs_server_backpressure_closes_total",
     "sessions closed for an over-limit outbound queue",
     &ServerStats::backpressure_closes},
    {"lpvs_server_frames_rx_total", "frames received",
     &ServerStats::frames_rx},
    {"lpvs_server_frames_tx_total", "frames sent", &ServerStats::frames_tx},
    {"lpvs_server_slots_total", "cluster slots scheduled",
     &ServerStats::slots_scheduled},
    {"lpvs_server_sessions_completed_total",
     "sessions ended with an orderly BYE", &ServerStats::sessions_completed},
    {"lpvs_server_forced_closes_total",
     "sessions cut by stop() or a drain timeout",
     &ServerStats::forced_closes},
    {"lpvs_server_shed_total",
     "slots forced down the degradation ladder by overload",
     &ServerStats::shed_slots},
    {"lpvs_server_capacity_violations_total",
     "served schedules breaking a capacity row (6)/(7)",
     &ServerStats::capacity_violations},
    {"lpvs_server_handoffs_total",
     "connections routed from the dispatcher to a worker", nullptr},
    {"lpvs_io_syscalls_total",
     "data-path syscalls (read + writev + io_uring_enter)",
     &ServerStats::io_syscalls},
    {"lpvs_io_read_syscalls_total",
     "data-path syscalls that moved inbound bytes",
     &ServerStats::io_read_syscalls},
    {"lpvs_io_write_syscalls_total",
     "data-path syscalls that moved outbound bytes",
     &ServerStats::io_write_syscalls},
    {"lpvs_io_uring_enters_total", "io_uring_enter batch submissions",
     &ServerStats::io_uring_enters},
    {"lpvs_io_submissions_total",
     "ops queued through the batched submission API",
     &ServerStats::io_submissions},
    {"lpvs_io_flushes_total", "non-empty submission batches flushed",
     &ServerStats::io_flushes},
    {"lpvs_io_backend_fallback_total",
     "event loops degraded from their requested backend",
     &ServerStats::backend_fallbacks},
}};

/// One thread's counter slab.  The owning thread adds with relaxed atomics
/// (no contention: one writer); the fold reads the live values and tracks
/// what it already pushed into the registry in `published` (guarded by the
/// daemon's fold mutex).
struct LocalCounters {
  std::array<std::atomic<long>, kNumCounters> value{};
  std::array<long, kNumCounters> published{};

  void add(CounterId id, long delta = 1) {
    value[static_cast<std::size_t>(id)].fetch_add(delta,
                                                  std::memory_order_relaxed);
  }

  /// Adds what an event loop's syscall ledger counted since `seen` (its
  /// IoStats at the previous call) and advances `seen`.  Owning thread only:
  /// the loop's IoStats are plain fields.
  void add_io(const IoStats& now, IoStats& seen) {
    const auto bump = [this](CounterId id, long current, long previous) {
      if (current != previous) add(id, current - previous);
    };
    bump(kIoReadSyscalls, now.read_path_syscalls, seen.read_path_syscalls);
    bump(kIoWriteSyscalls, now.write_path_syscalls, seen.write_path_syscalls);
    bump(kIoUringEnters, now.enter_syscalls, seen.enter_syscalls);
    bump(kIoSubmissions, now.submissions, seen.submissions);
    bump(kIoFlushes, now.flushes, seen.flushes);
    bump(kIoSyscalls, now.total_syscalls(), seen.total_syscalls());
    seen = now;
  }
};

/// What the dispatcher hands a worker: an admitted socket, its validated
/// HELLO, and whatever bytes followed the HELLO in the receive buffer.
struct ConnectionHandoff {
  int fd = -1;
  protocol::Hello hello{};
  std::vector<std::uint8_t> leftover;
};

/// Control state shared by the dispatcher and every worker.
struct SharedControl {
  /// Every accepted-and-not-yet-closed socket, wherever it currently lives
  /// (dispatcher pending list, handoff ring, or a worker).  The admission
  /// check and the active-sessions gauge read it.
  std::atomic<long> open_connections{0};
  std::atomic<bool> draining{false};
  std::atomic<bool> stopping{false};
  /// Set (release) by the dispatcher after its last possible ring push;
  /// workers acquire-load it before judging their ring empty.
  std::atomic<bool> dispatcher_done{false};
  std::atomic<bool> drain_forced{false};
  /// Written before `draining` is released; read after it is acquired.
  std::chrono::steady_clock::time_point drain_deadline{};
};

/// One worker reactor: an event-loop thread owning a shard of connections.
class Worker {
 public:
  /// `config`, `scheduler`, `control`, and whatever `context` points at must
  /// outlive the worker.  `schedule_ms` may be null (no timing).
  Worker(const ServerConfig& config, const core::Scheduler& scheduler,
         const core::RunContext& context, SharedControl& control,
         obs::Histogram* schedule_ms, obs::Histogram* batch_occupancy);
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  common::Status start();
  void wake();
  void join();

  /// Dispatcher thread only (single producer).  False = ring full; the
  /// caller keeps the handoff and rejects the session.  wake() after.
  bool submit(ConnectionHandoff&& handoff) {
    return ring_.try_push(std::move(handoff));
  }

  /// After join(): closes any handoffs stranded in the ring by an immediate
  /// stop.  Returns how many sockets were cut.
  long close_abandoned();

  LocalCounters& counters() { return counters_; }

 private:
  struct Cluster;

  /// Pooled per-session state.  reset() restores as-new while keeping the
  /// decoder and outbound buffer capacity — steady state recycles these
  /// without touching the allocator.
  struct Connection {
    int fd = -1;
    protocol::FrameDecoder decoder;
    /// Receive scratch for the batched read path: the submission API needs
    /// every buffer in a wakeup's read batch alive until the batch flushes,
    /// so each connection carries its own (pooled, so no steady-state
    /// allocation) instead of sharing one stack buffer.
    std::array<std::uint8_t, 4096> rx_scratch;

    std::vector<std::uint8_t> outbound;
    std::size_t out_offset = 0;
    bool want_write = false;
    bool in_burst = false;  ///< enlisted in the current outbound burst
    bool close_after_flush = false;
    bool orderly = false;  ///< reached BYE; counted as completed on close

    protocol::Hello hello{};
    display::DisplaySpec spec{};
    bayes::GammaEstimator gamma{};
    Cluster* cluster = nullptr;
    bool has_report = false;
    protocol::Report report{};

    void reset() {
      fd = -1;
      decoder.reset();
      outbound.clear();
      out_offset = 0;
      want_write = false;
      in_burst = false;
      close_after_flush = false;
      orderly = false;
      hello = {};
      gamma = {};
      cluster = nullptr;
      has_report = false;
    }
  };

  struct Cluster {
    std::uint64_t id = 0;
    std::uint32_t expected_size = 0;
    std::uint32_t next_slot = 0;
    /// Membership in user-id order: the slot problem's device order, which
    /// is what keeps schedules independent of connection arrival order.
    std::map<std::uint64_t, Connection*> members;
    solver::SolveCache cache;
    bool ever_complete = false;
    bool queued = false;  ///< already in this batch's ready list
  };

  void run();
  void drain_wake_pipe();
  void adopt_pending();
  void adopt(ConnectionHandoff&& handoff);
  void service_reads();
  bool drain_decoder(Connection* conn);
  bool handle_frame(Connection* conn, const protocol::Frame& frame);
  bool handle_report(Connection* conn, const protocol::Report& report);
  void mark_ready_if_barrier_met(Cluster* cluster);
  void schedule_ready_clusters();
  int overload_rung(std::size_t batch, std::size_t index) const;
  void schedule_cluster(Cluster* cluster, int forced_rung);
  bool queue_frame(Connection* conn, const protocol::Frame& frame);
  void enlist(Connection* conn);
  void flush_burst();
  void finalize_drained(Connection* conn);
  bool flush(Connection* conn);
  void observe_occupancy(std::size_t ops);
  bool fail_session(Connection* conn, common::StatusCode code,
                    std::string message);
  void close_connection(Connection* conn, bool orderly);
  void reap_cluster(Cluster* cluster);

  const ServerConfig& config_;
  const core::Scheduler& scheduler_;
  core::RunContext context_;
  SharedControl& control_;
  obs::Histogram* schedule_ms_ = nullptr;
  obs::Histogram* batch_occupancy_ = nullptr;
  LocalCounters counters_;

  common::SpscRing<ConnectionHandoff> ring_;
  int wake_pipe_[2] = {-1, -1};
  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;

  common::ObjectPool<Connection> pool_;
  std::map<int, Connection*> connections_;  ///< fd → pooled session
  std::map<std::uint64_t, std::unique_ptr<Cluster>> clusters_;
  std::vector<Cluster*> ready_;

  // Batched-I/O state (capacity retained across wakeups).  Reads and
  // writes keep separate outcome scratch because a frame handled while
  // iterating read outcomes may fail_session -> flush_burst, which must
  // not clobber the read batch mid-iteration.
  std::vector<Connection*> burst_;        ///< enlisted for the next flush
  std::vector<Connection*> burst_round_;  ///< one flush round (swap scratch)
  std::vector<int> read_ready_;           ///< fds readable this wakeup
  std::vector<IoOutcome> read_outcomes_;
  std::vector<IoOutcome> write_outcomes_;
  IoStats io_seen_;  ///< loop stats already added to the slab

  // The cluster-slot step and its member rows, reused across every
  // (cluster, slot): steady-state assembly allocates nothing.
  core::ClusterSlot slot_;
  std::vector<core::SlotMember> members_;
  std::vector<Connection*> order_;

  // Joint ABR × transform path (config_.abr.enabled): the joint scratch
  // borrows the step's problem as its base via swap, so both modes share
  // the device assembly above and its pooled capacity.
  abr::JointAbrScheduler joint_scheduler_;
  abr::JointSlotProblem joint_;
  abr::JointSchedule joint_result_;
};

}  // namespace lpvs::server::internal
