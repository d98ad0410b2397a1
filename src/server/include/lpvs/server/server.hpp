// EdgeServerDaemon: the networked serving front end.
//
// A multi-reactor epoll (poll-fallback) server that hosts the LPVS slot
// cadence over real sockets — the paper's §V edge-server deployment with
// actual bytes on the wire instead of in-process calls.  Mobile clients
// connect over TCP, speak lpvs-wire/session v1 (protocol.hpp), report
// battery/power state every slot, and receive the scheduler's per-slot
// transform decision plus a chunk grant.
//
// Threading model (docs/server.md has the full picture):
//
//   dispatcher thread                    worker reactors (listener.workers)
//   ┌───────────────────┐   SPSC ring    ┌──────────────────────────────┐
//   │ accept()          │  + wake pipe   │ epoll loop, owns:            │
//   │ read first frame  ├───────────────▶│   connections of its shard   │
//   │ admission control │  (fd, HELLO,   │   clusters (barrier, cache)  │
//   │ route by cluster  │   leftover)    │   slot-problem scratch       │
//   └───────────────────┘                └──────────────────────────────┘
//
// Connections are sharded by cluster id (cluster_id % workers), so every
// per-cluster REPORT barrier, SolveCache, and problem assembly stays
// thread-local: no locks on the serving path, and the schedule bytes a
// session receives are bit-identical at any worker count.
//
// Per-connection session state machine (unchanged from the single-reactor
// daemon):
//
//          accept
//            │
//      ┌─────▼──────┐  HELLO ok   ┌─────────┐  BYE / give-up  ┌─────────┐
//      │ AWAIT_HELLO├────────────▶│ ACTIVE  ├────────────────▶│ CLOSING │
//      └─────┬──────┘             └────┬────┘                 └────┬────┘
//            │ bad HELLO / reject      │ decode error /            │ flushed
//            ▼                         │ backpressure overflow     ▼
//        ERROR + close ◀───────────────┘                         close
//
// Slot cadence (the determinism core): sessions belong to virtual clusters
// (HELLO declares cluster id + size).  Slot k of a cluster is scheduled
// only when *every* member's REPORT for k has arrived — a barrier — and
// the slot problem is assembled in user-id order, so the schedule each
// session receives is a pure function of (seed, cluster composition,
// reported state).  Socket timing changes *when* bytes move, never *which*
// bytes.  The multi-worker test runs the same fleet at 1/2/8 workers and
// 2/8 client threads and asserts bit-identical per-session payloads.
//
// Overload behavior:
//   - Admission control: past admission.max_sessions, a HELLO is answered
//     with ERROR(kResourceExhausted) and the connection closed.
//   - Backpressure: each session's outbound queue is bounded; a client
//     that stops reading past max_outbound_bytes is closed, not buffered.
//     The dispatcher→worker rings are bounded too: a full ring rejects the
//     session instead of queueing without bound.
//   - Deadline shedding: `deadline` rides into the scheduler's existing
//     degradation ladder deterministically (node-budget truncation).  With
//     shed_ready_depth > 0 a worker additionally *forces* lower ladder
//     rungs when more than that many cluster barriers complete in one
//     batch — bounded latency at the cost of the bit-determinism contract,
//     so it is off by default and the tests for it are behavioral.
//
// Shutdown: drain() stops accepting and lets live sessions finish their
// declared slots (BYE → flush → close); after the timeout any stragglers
// are force-closed.  stop() is immediate.  Both are event-driven — a wake
// pipe per loop — so an idle daemon sleeps in epoll_wait indefinitely and
// drain completes the moment the last session does.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/server/config.hpp"

namespace lpvs::server {

/// A point-in-time view of the daemon's counters, produced from the obs
/// MetricsRegistry — the single source of truth.  Workers count into
/// thread-local blocks; stats() folds them into the registry and reads the
/// typed snapshot back into this struct via named lookups, so the registry
/// a caller attaches via RunContext and the struct returned here can never
/// disagree.
struct ServerStats {
  long accepted = 0;
  long active = 0;
  long admission_rejects = 0;
  long decode_errors = 0;
  long protocol_errors = 0;
  long backpressure_closes = 0;
  long frames_rx = 0;
  long frames_tx = 0;
  long slots_scheduled = 0;
  long sessions_completed = 0;  ///< orderly BYE + flush + close
  long forced_closes = 0;       ///< cut by stop() or a drain timeout
  long shed_slots = 0;          ///< slots pushed down the ladder by overload
  long capacity_violations = 0;  ///< schedules breaking (6)/(7): always 0

  // Data-path syscall budget (event_loop.hpp IoStats, summed over the
  // dispatcher and every worker).
  long io_syscalls = 0;        ///< read + writev + io_uring_enter
  long io_read_syscalls = 0;   ///< syscalls that moved inbound bytes
  long io_write_syscalls = 0;  ///< syscalls that moved outbound bytes
  long io_uring_enters = 0;    ///< batch submissions on the uring backend
  long io_submissions = 0;     ///< ops queued through the submission API
  long io_flushes = 0;         ///< non-empty submission batches
  long backend_fallbacks = 0;  ///< loops degraded from their requested backend

  /// Reads the lpvs_server_* samples out of a typed registry snapshot.
  /// Fields whose metric is absent stay zero.
  static ServerStats from_snapshot(const obs::MetricsSnapshot& snapshot);
};

class EdgeServerDaemon {
 public:
  /// `scheduler` and everything `context` points at (anxiety model,
  /// registry, trace) must outlive the daemon.  The scheduler's schedule()
  /// must be const-thread-safe (core::LpvsScheduler is; the batch layer
  /// already relies on it).  The context's solve-cache / fault fields are
  /// ignored: caches are per-cluster inside the workers, and fault
  /// injection belongs to the transport tests, not the daemon.
  EdgeServerDaemon(ServerConfig config, const core::Scheduler& scheduler,
                   core::RunContext context);
  ~EdgeServerDaemon();
  EdgeServerDaemon(const EdgeServerDaemon&) = delete;
  EdgeServerDaemon& operator=(const EdgeServerDaemon&) = delete;

  /// Binds 127.0.0.1, starts the dispatcher and worker threads.
  /// kUnavailable when the port cannot be bound; kInvalidArgument when the
  /// slot config's chunks_per_slot does not fit in a GRANT (outside
  /// [0, protocol::kMaxGrantChunks]).
  common::Status start();

  /// The bound port (valid after start(); resolves port = 0 requests).
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful drain: stop accepting, let live sessions finish, then stop
  /// the loops.  Ok when every session ended orderly inside the timeout;
  /// kDeadlineExceeded when stragglers had to be force-closed.
  common::Status drain(int timeout_ms = 30000);

  /// Immediate shutdown (force-closes everything still open).
  void stop();

  ServerStats stats() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;

  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
};

}  // namespace lpvs::server
