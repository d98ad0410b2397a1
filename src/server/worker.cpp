#include "worker.hpp"

#include <algorithm>
#include <cerrno>
#include <utility>

#include <unistd.h>

#include "lpvs/common/io.hpp"

namespace lpvs::server::internal {
namespace {

namespace io = common::io;

/// Handoffs the dispatcher may park at one worker before the ring pushes
/// back (rejecting the session instead of queueing without bound).
constexpr std::size_t kHandoffRingSlots = 1024;

}  // namespace

Worker::Worker(const ServerConfig& config, const core::Scheduler& scheduler,
               const core::RunContext& context, SharedControl& control,
               obs::Histogram* schedule_ms, obs::Histogram* batch_occupancy)
    : config_(config),
      scheduler_(scheduler),
      context_(context),
      control_(control),
      schedule_ms_(schedule_ms),
      batch_occupancy_(batch_occupancy),
      ring_(kHandoffRingSlots) {
  joint_.ladder = abr::LadderModel(config.abr.ladder);
  joint_.receive_budget_mwh = config.abr.receive_budget_mwh;
  joint_.qoe_weight = config.abr.qoe_weight;
  joint_.receive_energy_weight = config.abr.receive_energy_weight;
  joint_.qoe_floor = config.abr.qoe_floor;
  joint_.throughput_safety = config.abr.throughput_safety;
}

Worker::~Worker() {
  join();
  io::close_fd(wake_pipe_[0]);
  io::close_fd(wake_pipe_[1]);
}

common::Status Worker::start() {
  if (::pipe(wake_pipe_) < 0) {
    return common::Status::Internal("pipe: worker wake pipe");
  }
  (void)io::set_nonblocking(wake_pipe_[0]);
  (void)io::set_nonblocking(wake_pipe_[1]);

  loop_ = std::make_unique<EventLoop>(config_.listener.backend);
  if (loop_->fell_back()) counters_.add(kIoBackendFallback);
  const common::Status status =
      loop_->add(wake_pipe_[0], /*want_read=*/true, /*want_write=*/false);
  if (!status.ok()) return status;

  thread_ = std::thread([this] { run(); });
  return common::Status::Ok();
}

void Worker::wake() {
  if (wake_pipe_[1] >= 0) {
    const std::uint8_t byte = 1;
    (void)io::write_retry(wake_pipe_[1], &byte, 1);
  }
}

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

long Worker::close_abandoned() {
  long cut = 0;
  ConnectionHandoff handoff;
  while (ring_.try_pop(handoff)) {
    io::close_fd(handoff.fd);
    control_.open_connections.fetch_sub(1);
    counters_.add(kForcedCloses);
    ++cut;
  }
  return cut;
}

// ---- Event loop -----------------------------------------------------------

void Worker::run() {
  std::vector<LoopEvent> events;
  for (;;) {
    if (control_.stopping.load(std::memory_order_acquire)) break;
    int timeout_ms = -1;  // idle workers sleep indefinitely: zero wakeups
    if (control_.draining.load(std::memory_order_acquire)) {
      // Acquire dispatcher_done *before* draining the ring: once it reads
      // true, every push the dispatcher ever made is visible, so an empty
      // ring plus an empty shard really is the end.
      const bool dispatcher_done =
          control_.dispatcher_done.load(std::memory_order_acquire);
      adopt_pending();
      if (dispatcher_done && connections_.empty()) break;
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
    if (!waited.ok()) break;  // loop fd gone; nothing recoverable

    // One wakeup = one batch: collect every fd's direction first, then run
    // the writable backlog, the reads, and the ready schedules as three
    // coalesced submission flushes instead of per-fd syscalls.
    read_ready_.clear();
    for (const LoopEvent& event : events) {
      if (event.fd == wake_pipe_[0]) {
        drain_wake_pipe();
        adopt_pending();
        continue;
      }
      auto it = connections_.find(event.fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second;
      if (event.broken) {
        close_connection(conn, /*orderly=*/false);
        continue;
      }
      if (event.writable) enlist(conn);
      if (event.readable) read_ready_.push_back(event.fd);
    }
    // Writable backlog drains first: it frees outbound room the frames
    // decoded below may need.
    flush_burst();
    service_reads();
    schedule_ready_clusters();
    counters_.add_io(loop_->io_stats(), io_seen_);
  }

  // Loop exit: anything still open is cut short.
  const long leftover = static_cast<long>(connections_.size());
  if (leftover > 0) counters_.add(kForcedCloses, leftover);
  while (!connections_.empty()) {
    close_connection(connections_.begin()->second, /*orderly=*/false);
  }
  counters_.add_io(loop_->io_stats(), io_seen_);
}

void Worker::drain_wake_pipe() {
  std::uint8_t sink[64];
  while (io::read_retry(wake_pipe_[0], sink, sizeof(sink)).ok()) {
  }
}

void Worker::adopt_pending() {
  ConnectionHandoff handoff;
  while (ring_.try_pop(handoff)) adopt(std::move(handoff));
}

// ---- Adoption: the worker-side half of HELLO ------------------------------

void Worker::adopt(ConnectionHandoff&& handoff) {
  Connection* conn = pool_.acquire();
  conn->fd = handoff.fd;
  conn->decoder.set_limit(config_.admission.max_frame_bytes);
  if (!handoff.leftover.empty()) {
    conn->decoder.feed(handoff.leftover.data(), handoff.leftover.size());
  }
  if (!loop_->add(handoff.fd, /*want_read=*/true, /*want_write=*/false)
           .ok()) {
    io::close_fd(handoff.fd);
    pool_.release(conn);
    control_.open_connections.fetch_sub(1);
    counters_.add(kForcedCloses);
    return;
  }
  connections_[handoff.fd] = conn;
  conn->hello = handoff.hello;

  // Cluster membership rules live here, with the cluster map (the
  // dispatcher only checked admission and the size range).
  const protocol::Hello& hello = conn->hello;
  Cluster* cluster = nullptr;
  auto it = clusters_.find(hello.cluster_id);
  if (it == clusters_.end()) {
    auto fresh = std::make_unique<Cluster>();
    fresh->id = hello.cluster_id;
    fresh->expected_size = hello.cluster_size;
    cluster = fresh.get();
    clusters_[hello.cluster_id] = std::move(fresh);
  } else {
    cluster = it->second.get();
    if (cluster->expected_size != hello.cluster_size) {
      (void)fail_session(conn, common::StatusCode::kInvalidArgument,
                         "cluster size disagrees with existing members");
      return;
    }
    if (cluster->members.size() >= cluster->expected_size) {
      (void)fail_session(conn, common::StatusCode::kResourceExhausted,
                         "cluster already full");
      return;
    }
    if (cluster->members.count(hello.user_id) != 0) {
      (void)fail_session(conn, common::StatusCode::kInvalidArgument,
                         "duplicate user in cluster");
      return;
    }
  }

  conn->cluster = cluster;
  // The panel spec is server-derived (the provider knows the handset
  // catalog); keyed on the user so it is stable across reconnects.
  common::Rng spec_rng =
      common::derived_rng(config_.slot.seed, hello.user_id, kDeviceSalt);
  conn->spec = display::DeviceCatalog::standard().sample(spec_rng).spec;
  cluster->members[hello.user_id] = conn;
  if (cluster->members.size() == cluster->expected_size) {
    cluster->ever_complete = true;
  }

  protocol::HelloAck ack;
  ack.user_id = hello.user_id;
  ack.next_slot = cluster->next_slot;
  if (!queue_frame(conn, protocol::make_frame(ack))) return;
  if (!flush(conn)) return;
  mark_ready_if_barrier_met(cluster);

  // A pipelined client may have sent its first REPORT (or more) in the same
  // burst as the HELLO; those bytes rode along in the handoff.
  if (conn->decoder.buffered() > 0 &&
      connections_.find(conn->fd) != connections_.end()) {
    (void)drain_decoder(conn);
  }
}

// ---- Inbound path ---------------------------------------------------------

// Every fd readable this wakeup submits one 4 KiB read into its own
// scratch, the batch flushes as one submission (one io_uring_enter on
// uring), and fds whose read filled the whole buffer go another round
// until each socket is drained to would-block.
void Worker::service_reads() {
  while (!read_ready_.empty()) {
    for (const int fd : read_ready_) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed since collection
      Connection* conn = it->second;
      loop_->submit_read(fd, conn->rx_scratch.data(),
                         conn->rx_scratch.size(),
                         static_cast<std::uint64_t>(fd));
    }
    read_ready_.clear();
    read_outcomes_.clear();
    const std::size_t ops = loop_->flush(read_outcomes_);
    if (ops == 0) break;
    observe_occupancy(ops);
    for (const IoOutcome& outcome : read_outcomes_) {
      auto it = connections_.find(outcome.fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second;
      bool hung_up = false;
      bool more = false;
      switch (outcome.result.kind) {
        case io::IoResult::Kind::kOk:
          conn->decoder.feed(conn->rx_scratch.data(), outcome.result.count);
          more = outcome.result.count == conn->rx_scratch.size();
          break;
        case io::IoResult::Kind::kWouldBlock:
          break;
        case io::IoResult::Kind::kEof:
        case io::IoResult::Kind::kError:
          // A peer may BYE and hang up in one burst, so the buffered
          // frames are decoded below *before* the close — otherwise an
          // orderly goodbye would race its own EOF and count as a cut
          // session.
          hung_up = true;
          break;
      }
      if (!conn->close_after_flush) {
        if (!drain_decoder(conn)) continue;  // connection closed
      }
      if (hung_up) {
        close_connection(conn, /*orderly=*/false);
      } else if (more) {
        read_ready_.push_back(outcome.fd);
      }
    }
  }
}

/// Decodes every buffered frame.  False = the connection was closed
/// (malformed input or a handler that ended the session).
bool Worker::drain_decoder(Connection* conn) {
  for (;;) {
    protocol::FrameDecoder::Result result = conn->decoder.next();
    if (result.kind == protocol::FrameDecoder::Result::Kind::kNeedMore) {
      return true;
    }
    if (result.kind == protocol::FrameDecoder::Result::Kind::kError) {
      // Malformed input is terminal: count it and drop the connection.
      counters_.add(kDecodeErrors);
      close_connection(conn, /*orderly=*/false);
      return false;
    }
    counters_.add(kFramesRx);
    if (!handle_frame(conn, result.frame)) return false;  // closed
  }
}

bool Worker::handle_frame(Connection* conn, const protocol::Frame& frame) {
  switch (frame.type) {
    case protocol::FrameType::kHello:
      // Every worker connection already completed its HELLO at the
      // dispatcher; a second one is a protocol violation.
      return fail_session(conn, common::StatusCode::kInvalidArgument,
                          "duplicate HELLO");
    case protocol::FrameType::kReport:
      return handle_report(conn, frame.as<protocol::Report>());
    case protocol::FrameType::kBye:
      conn->orderly = true;
      close_connection(conn, /*orderly=*/true);
      return false;
    case protocol::FrameType::kHelloAck:
    case protocol::FrameType::kSchedule:
    case protocol::FrameType::kGrant:
    case protocol::FrameType::kError:
      return fail_session(conn, common::StatusCode::kInvalidArgument,
                          "client sent a server-only frame");
  }
  return fail_session(conn, common::StatusCode::kInvalidArgument,
                      "unknown frame type");
}

bool Worker::handle_report(Connection* conn, const protocol::Report& report) {
  if (conn->cluster == nullptr) {
    return fail_session(conn, common::StatusCode::kInvalidArgument,
                        "REPORT before HELLO");
  }
  Cluster* cluster = conn->cluster;
  if (conn->has_report || report.slot != cluster->next_slot) {
    return fail_session(conn, common::StatusCode::kInvalidArgument,
                        "REPORT out of slot order");
  }
  // The Bayes observation of the previous slot's realized saving (§V-D).
  if (report.has_delta != 0) conn->gamma.observe(report.observed_delta);
  if (report.watching == 0) {
    // The user gave up; it leaves the cluster now so remaining members'
    // barrier does not wait on it, and BYE follows.
    cluster->members.erase(conn->hello.user_id);
    conn->cluster = nullptr;
    mark_ready_if_barrier_met(cluster);
    reap_cluster(cluster);
    return true;
  }
  conn->has_report = true;
  conn->report = report;
  mark_ready_if_barrier_met(cluster);
  return true;
}

// ---- Slot cadence ---------------------------------------------------------

void Worker::mark_ready_if_barrier_met(Cluster* cluster) {
  if (cluster->queued || cluster->members.empty()) return;
  // A cluster schedules only once fully assembled — the composition of
  // slot 0 is fixed by the HELLOs, not by which member's bytes arrived
  // first.  After assembly, members may only leave (give-up, BYE).
  if (!cluster->ever_complete) return;
  for (const auto& [user, member] : cluster->members) {
    if (!member->has_report) return;
  }
  cluster->queued = true;
  ready_.push_back(cluster);
}

void Worker::schedule_ready_clusters() {
  if (ready_.empty()) return;
  // Stable processing order (map order is by cluster id already, but the
  // ready list fills in arrival order).
  std::sort(ready_.begin(), ready_.end(),
            [](const Cluster* a, const Cluster* b) { return a->id < b->id; });
  const std::size_t batch = ready_.size();
  for (std::size_t i = 0; i < batch; ++i) {
    Cluster* cluster = ready_[i];
    // `queued` stays set while scheduling: it pins the cluster against
    // reap_cluster when a member's close fires mid-send.
    if (!cluster->members.empty()) {
      schedule_cluster(cluster, overload_rung(batch, i));
    }
    cluster->queued = false;
    reap_cluster(cluster);
  }
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(batch));
  // kBurst: every member of every cluster in this ready batch enlisted its
  // SCHEDULE+GRANT bytes above; they leave in one cross-member submission
  // (a no-op in the finer-grained modes, which flushed inline).
  flush_burst();
}

int Worker::overload_rung(std::size_t batch, std::size_t index) const {
  if (config_.shed_ready_depth == 0) return -1;
  if (batch <= config_.shed_ready_depth || index < config_.shed_ready_depth) {
    return -1;
  }
  const bool deep = batch > 2 * config_.shed_ready_depth;
  return static_cast<int>(deep ? core::DegradationRung::kReplayPrevious
                               : core::DegradationRung::kWarmRepair);
}

void Worker::schedule_cluster(Cluster* cluster, int forced_rung) {
  obs::ScopedTimer timer(schedule_ms_);

  members_.clear();
  order_.clear();
  for (auto& [user_id, member] : cluster->members) {
    // Session-scale capacity, as the emulator and the federation size
    // their batteries: scaling both keeps e / capacity at the reported
    // fraction, which is where the anxiety is evaluated.
    const double capacity = member->hello.battery_capacity_mwh *
                            config_.slot.effective_capacity_scale;
    members_.push_back(core::SlotMember{
        .user = user_id,
        .spec = &member->spec,
        .genre = static_cast<media::Genre>(member->hello.genre %
                                           media::kGenreCount),
        .bitrate_mbps = member->hello.bitrate_mbps,
        .energy_mwh = member->report.battery_fraction * capacity,
        .capacity_mwh = capacity,
        .gamma = member->gamma.expected_gamma()});
    order_.push_back(member);
  }
  slot_.assemble(config_.slot, cluster->next_slot, members_);

  core::RunContext ctx =
      context_.with_slot(static_cast<std::int64_t>(cluster->next_slot))
          .with_solve_cache(&cluster->cache, cluster->id);
  core::SlotDeadline deadline = config_.deadline;
  if (forced_rung >= 0 &&
      (deadline.force_rung < 0 || forced_rung > deadline.force_rung)) {
    deadline.force_rung = forced_rung;
    counters_.add(kShed);
  }
  ctx = ctx.with_deadline(deadline);

  core::CheckedSchedule checked;
  bool joint_mode = false;
  if (config_.abr.enabled) {
    // Joint ABR × transform: same device assembly, widened decision.  The
    // joint solve replaces the degradation ladder for this cluster (the
    // SCHEDULE rung byte reports full solve); everything stays a pure
    // function of (cluster composition, reports), so payload bytes remain
    // worker-count-independent.
    std::swap(joint_.base, slot_.problem());
    joint_.streams.resize(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      joint_.streams[i].buffer_s = order_[i]->report.buffer_s;
      joint_.streams[i].throughput_mbps = order_[i]->report.throughput_mbps;
    }
    joint_result_ = joint_scheduler_.schedule(joint_, ctx);
    std::swap(joint_.base, slot_.problem());
    checked.schedule = joint_result_.display;
    checked.within_capacity =
        core::within_capacity(slot_.problem(), checked.schedule);
    joint_mode = true;
  } else {
    checked = slot_.solve(scheduler_, ctx);
  }
  counters_.add(kSlots);
  if (!checked.within_capacity) counters_.add(kCapacityViolations);
  const core::Schedule& schedule = checked.schedule;

  const auto selected = static_cast<std::uint32_t>(schedule.selected_count());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    Connection* member = order_[i];
    const bool transformed = schedule.x[i] != 0;

    protocol::Schedule push;
    push.slot = cluster->next_slot;
    push.transform = transformed ? 1 : 0;
    push.rung = static_cast<std::uint8_t>(schedule.rung);
    push.expected_gamma = members_[i].gamma;
    push.objective = schedule.objective;
    push.selected_count = selected;
    push.cluster_devices = static_cast<std::uint32_t>(order_.size());
    if (joint_mode) {
      push.bitrate_rung = static_cast<std::uint8_t>(joint_result_.rung[i]);
      push.bitrate_mbps = joint_result_.rung_mbps[i];
    }

    protocol::Grant grant;
    grant.slot = cluster->next_slot;
    grant.chunks = static_cast<std::uint32_t>(config_.slot.chunks_per_slot);
    grant.chunk_seconds = config_.slot.chunk_seconds;
    grant.power_scale = transformed ? 1.0 - members_[i].gamma : 1.0;

    member->has_report = false;
    // SCHEDULE and GRANT accumulate back to back in the outbound buffer,
    // so one gathered write covers both frames; under kBurst the member
    // only enlists here and the whole ready batch flushes as one
    // submission in schedule_ready_clusters.  kPerMember/kPerFrame exist
    // as measurement baselines for the syscall budget (payload bytes are
    // identical in all three modes).
    switch (config_.listener.flush_mode) {
      case FlushMode::kPerFrame:
        if (!queue_frame(member, protocol::make_frame(push))) continue;
        if (!flush(member)) continue;
        if (!queue_frame(member, protocol::make_frame(grant))) continue;
        (void)flush(member);
        break;
      case FlushMode::kPerMember:
        if (!queue_frame(member, protocol::make_frame(push))) continue;
        if (!queue_frame(member, protocol::make_frame(grant))) continue;
        (void)flush(member);
        break;
      case FlushMode::kBurst:
        if (!queue_frame(member, protocol::make_frame(push))) continue;
        if (!queue_frame(member, protocol::make_frame(grant))) continue;
        enlist(member);
        break;
    }
  }
  ++cluster->next_slot;
}

// ---- Outbound path --------------------------------------------------------

bool Worker::queue_frame(Connection* conn, const protocol::Frame& frame) {
  protocol::encode_into(frame, conn->outbound);
  counters_.add(kFramesTx);
  if (conn->outbound.size() - conn->out_offset >
      config_.admission.max_outbound_bytes) {
    // The peer stopped reading; shedding it beats buffering without bound.
    // Nothing useful can be flushed to a non-reading peer.
    counters_.add(kBackpressureCloses);
    close_connection(conn, /*orderly=*/false);
    return false;
  }
  return true;
}

void Worker::enlist(Connection* conn) {
  if (conn->in_burst) return;
  conn->in_burst = true;
  burst_.push_back(conn);
}

// Flushes every enlisted connection's outbound through the submission
// queue.  One round submits one gathered write per connection and flushes
// the batch (one io_uring_enter on uring; one writev per connection on
// epoll/poll); partially accepted connections go another round, so the
// loop ends only when every burst member is drained, parked on
// want-write, or closed.
void Worker::flush_burst() {
  while (!burst_.empty()) {
    burst_round_.clear();
    burst_round_.swap(burst_);  // enlist() during this round goes to burst_
    for (Connection* conn : burst_round_) {
      if (conn->out_offset < conn->outbound.size()) {
        const struct iovec iov{conn->outbound.data() + conn->out_offset,
                               conn->outbound.size() - conn->out_offset};
        loop_->submit_writev(conn->fd, &iov, 1,
                             static_cast<std::uint64_t>(conn->fd));
      } else {
        conn->in_burst = false;
        finalize_drained(conn);  // may close this connection (only this one)
      }
    }
    write_outcomes_.clear();
    const std::size_t ops = loop_->flush(write_outcomes_);
    if (ops == 0) continue;  // everything finalized without bytes owed
    observe_occupancy(ops);
    for (const IoOutcome& outcome : write_outcomes_) {
      auto it = connections_.find(outcome.fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second;
      conn->in_burst = false;
      switch (outcome.result.kind) {
        case io::IoResult::Kind::kOk:
          if (outcome.result.count > 0) {
            conn->out_offset += outcome.result.count;
            if (conn->out_offset < conn->outbound.size()) {
              enlist(conn);  // partial acceptance: another round
            } else {
              finalize_drained(conn);
            }
            break;
          }
          [[fallthrough]];  // 0-byte acceptance: treat as would-block
        case io::IoResult::Kind::kWouldBlock:
          if (!conn->want_write) {
            conn->want_write = true;
            (void)loop_->modify(conn->fd, true, true);
          }
          break;
        case io::IoResult::Kind::kEof:
        case io::IoResult::Kind::kError:
          close_connection(conn, /*orderly=*/false);
          break;
      }
    }
  }
}

/// Outbound fully written: recycle the buffer, honor a deferred close,
/// drop write interest.
void Worker::finalize_drained(Connection* conn) {
  conn->outbound.clear();
  conn->out_offset = 0;
  if (conn->close_after_flush) {
    close_connection(conn, conn->orderly);
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    (void)loop_->modify(conn->fd, true, false);
  }
}

bool Worker::flush(Connection* conn) {
  const int fd = conn->fd;
  enlist(conn);
  flush_burst();
  return connections_.find(fd) != connections_.end();
}

void Worker::observe_occupancy(std::size_t ops) {
  if (batch_occupancy_ != nullptr) {
    batch_occupancy_->observe(static_cast<double>(ops));
  }
}

bool Worker::fail_session(Connection* conn, common::StatusCode code,
                          std::string message) {
  counters_.add(kProtocolErrors);
  protocol::Error error;
  error.code = static_cast<std::uint8_t>(code);
  error.message = std::move(message);
  protocol::encode_into(protocol::make_frame(error), conn->outbound);
  conn->close_after_flush = true;
  flush(conn);  // closes on full flush; waits for writability otherwise
  return false;
}

void Worker::close_connection(Connection* conn, bool orderly) {
  if (conn->in_burst) {
    // Enlisted but dying before the flush (e.g. a backpressure close while
    // its cluster batch was still queueing): the burst list would dangle.
    conn->in_burst = false;
    burst_.erase(std::remove(burst_.begin(), burst_.end(), conn),
                 burst_.end());
  }
  if (conn->cluster != nullptr) {
    Cluster* cluster = conn->cluster;
    cluster->members.erase(conn->hello.user_id);
    conn->cluster = nullptr;
    // Remaining members may now satisfy the barrier without the leaver.
    mark_ready_if_barrier_met(cluster);
    reap_cluster(cluster);
  }
  if (orderly) counters_.add(kCompleted);
  (void)loop_->remove(conn->fd);
  io::close_fd(conn->fd);
  connections_.erase(conn->fd);
  pool_.release(conn);
  control_.open_connections.fetch_sub(1);
}

void Worker::reap_cluster(Cluster* cluster) {
  if (cluster->members.empty() && !cluster->queued) {
    clusters_.erase(cluster->id);
  }
}

}  // namespace lpvs::server::internal
