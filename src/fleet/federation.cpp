#include "lpvs/fleet/federation.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <utility>

#include "lpvs/battery/battery.hpp"
#include "lpvs/bayes/gamma_estimator.hpp"
#include "lpvs/bayes/nig_estimator.hpp"
#include "lpvs/common/thread_pool.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/fleet/wire.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/survey/population.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::fleet {
namespace {

/// Same derived-stream construction as the emulator: all per-entity-per-slot
/// randomness is a pure function of (seed, entity, slot), so federation
/// replays are bit-identical regardless of thread count or server layout.
common::Rng derived_rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return common::Rng(seed ^ (a + 1) * 0x9E3779B97F4A7C15ULL ^
                     (b + 1) * 0xC2B2AE3D27D4EB4FULL);
}

/// Seed salts for the federation's own derived streams (distinct from the
/// emulator's 0xF00D/0x5717C4/0xBA1E family except the Bayes-noise salt,
/// which is shared deliberately: a user observed by any server sees the
/// same measurement noise).
constexpr std::uint64_t kMobilitySalt = 0x0F1EE7u;
constexpr std::uint64_t kDeviceSalt = 0xF1u;
constexpr std::uint64_t kBayesNoiseSalt = 0xBA1Eu;
constexpr std::uint64_t kArrivalSalt = 0xD1A17Eu;  ///< diurnal arrivals

/// Knuth's Poisson sampler — exact and cheap for the per-slot arrival
/// means a diurnal curve produces (single digits to low tens).
int poisson_draw(common::Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  const double limit = std::exp(-mean);
  int count = -1;
  double p = 1.0;
  do {
    ++count;
    p *= rng.uniform();
  } while (p > limit);
  return count;
}

/// Exponential-ish bounds for the slot serve-phase wall time: sub-100us
/// warm slots through second-scale stalls.
const std::vector<double>& serve_ms_buckets() {
  static const std::vector<double> bounds = {
      0.05, 0.1, 0.25, 0.5, 1.0,   2.5,   5.0,   10.0,
      25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0};
  return bounds;
}

/// Fingerprint under which a server stores the handoff-derived warm hint.
/// It matches no real problem fingerprint (collisions are the cache's
/// accepted 2^-64 risk), so the hint never replays as an exact hit — it can
/// only be greedy-repaired into a warm incumbent, index-aligned with the
/// current slot's session order.
constexpr std::uint64_t kHintFingerprint = 0xF1EE7F00DB17E5ULL;

/// Placement key for a user: the mobility epoch in the high bits redraws
/// the rendezvous permutation for this user only, leaving everyone else's
/// assignment untouched.
std::uint64_t place_key(std::uint64_t user, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(epoch) << 32) ^ user;
}

}  // namespace

/// One emulated viewer: the device-side ground truth (battery, watching
/// state, content identity).  Server-side learned state lives in the
/// sessions; a crash can lose the learning, never the device.
struct Federation::FleetUser {
  std::uint64_t id = 0;
  media::Genre genre = media::Genre::kIrlChat;
  double bitrate_mbps = 3.0;
  display::DisplaySpec spec;
  battery::Battery battery;
  double start_fraction = 0.5;
  int giveup_percent = 10;
  int end_slot = 0;  ///< trace slot after which the user stops watching
  bool watching = true;
  double watch_minutes = 0.0;
  std::uint32_t epoch = 0;       ///< mobility epoch (placement key salt)
  std::uint32_t prev_epoch = 0;  ///< epoch at the previous reconcile
  bool placed = false;
  std::uint64_t server = 0;
  /// A session existed at some point; re-creating one afterwards is a cold
  /// restart (learned state lost), unlike the initial attach.
  bool established = false;
};

/// Per-session learned state held by the owning server (what handoff moves
/// and checkpoints snapshot).
struct ServerSession {
  bayes::GammaEstimator estimator;
  bayes::NigGammaEstimator nig;
  std::uint8_t last_assignment = 0;
  std::uint32_t slots_served = 0;
};

/// One emulated edge server.  Owns its sessions, its solve cache (one
/// warm-start stream keyed by the logical server id), and private copies of
/// the pricing models so the parallel serve phase shares nothing mutable.
struct Federation::EdgeServer {
  ServerInfo info;
  std::map<std::uint64_t, ServerSession> sessions;  // user-id order
  solver::SolveCache cache;
  std::uint64_t slots_run = 0;
  ServerReport report;
  transform::TransformEngine engine;
  media::PowerRateEstimator estimator;
  transform::ResourceModel resources;
  bool leaving = false;

  /// What the parallel serve phase produced this slot; folded into the
  /// totals sequentially (sorted server order) after the barrier so double
  /// summation order is thread-count independent.
  double slot_energy_mwh = 0.0;
  double slot_objective = 0.0;
  double slot_anxiety = 0.0;
  long slot_anxiety_samples = 0;
  long slot_selected = 0;
  long slot_scheduled = 0;
  long slot_capacity_violations = 0;
  /// 1 when this slot's schedule came off a ladder rung below kFullSolve —
  /// the degraded-share signal the autoscaler reads (never the registry).
  long slot_degraded = 0;
};

Federation::Federation(FederationConfig config, const trace::Trace& trace,
                       const core::Scheduler& scheduler,
                       core::RunContext context)
    : config_(std::move(config)),
      trace_(trace),
      scheduler_(scheduler),
      context_(context),
      placement_(std::vector<ServerInfo>{}) {
  assert(config_.servers > 0);
  assert(config_.slots > 0);
  assert(config_.chunks_per_slot > 0);
  assert(context_.anxiety != nullptr);
}

Federation::~Federation() = default;

Federation::EdgeServer& Federation::server(std::uint64_t id) {
  auto it = servers_.find(id);
  assert(it != servers_.end());
  return *it->second;
}

void Federation::setup_servers() {
  std::vector<ServerInfo> members;
  members.reserve(static_cast<std::size_t>(config_.servers));
  for (int s = 0; s < config_.servers; ++s) {
    ServerInfo info;
    info.id = static_cast<std::uint64_t>(s);
    if (static_cast<std::size_t>(s) < config_.server_weights.size()) {
      info.capacity_weight = config_.server_weights[static_cast<std::size_t>(s)];
    }
    members.push_back(info);
    auto edge = std::make_unique<EdgeServer>();
    edge->info = info;
    edge->report.id = info.id;
    servers_[info.id] = std::move(edge);
  }
  placement_ = Placement(members);
}

void Federation::setup_users() {
  // Users come from the trace: sessions live at the start slot with enough
  // viewers, most-watched first, one user per session round-robin until the
  // cap — so the audience mirrors the trace's popularity skew.
  std::vector<const trace::Session*> live =
      trace_.live_sessions(config_.start_slot);
  std::erase_if(live, [&](const trace::Session* s) {
    return s->viewers_at(config_.start_slot) < config_.min_viewers;
  });
  if (live.empty()) live = trace_.live_sessions(config_.start_slot);
  std::sort(live.begin(), live.end(),
            [&](const trace::Session* a, const trace::Session* b) {
              const int va = a->viewers_at(config_.start_slot);
              const int vb = b->viewers_at(config_.start_slot);
              if (va != vb) return va > vb;
              return a->id.value < b->id.value;
            });

  const int user_count = live.empty() ? 0 : config_.users;
  users_.clear();
  users_.reserve(static_cast<std::size_t>(user_count));

  // Give-up thresholds from the survey answer model, exactly like the
  // single-server emulator.
  common::Rng setup_rng = derived_rng(config_.seed, 0xDEu, 0xADu);
  const survey::SyntheticPopulation population;
  const std::vector<survey::Participant> participants =
      population.generate(user_count, setup_rng);

  const auto& catalog = display::DeviceCatalog::standard();
  for (int n = 0; n < user_count; ++n) {
    const trace::Session* session = live[static_cast<std::size_t>(n) %
                                         live.size()];
    const trace::Channel& channel = trace_.channel(session->channel);

    common::Rng device_rng =
        derived_rng(config_.seed, kDeviceSalt, static_cast<std::uint64_t>(n));
    FleetUser user;
    user.id = static_cast<std::uint64_t>(n);
    user.genre = channel.genre;
    user.bitrate_mbps = channel.bitrate_mbps;
    const auto& profile = catalog.sample(device_rng);
    user.spec = profile.spec;
    user.start_fraction = device_rng.truncated_normal(
        config_.initial_battery_mean, config_.initial_battery_std, 0.05, 1.0);
    user.battery = battery::Battery(
        common::MilliwattHours{profile.battery_mwh * config_.effective_capacity_scale},
        user.start_fraction);
    user.giveup_percent =
        participants[static_cast<std::size_t>(n)].giveup_level;
    user.end_slot = session->end_slot();
    users_.push_back(std::move(user));
  }

  // Channel templates the diurnal arrival process clones from: one per
  // distinct live session, in the same popularity order as the users.
  session_pool_.clear();
  session_pool_.reserve(live.size());
  for (const trace::Session* session : live) {
    const trace::Channel& channel = trace_.channel(session->channel);
    session_pool_.push_back({channel.genre, channel.bitrate_mbps});
  }
}

void Federation::spawn_arrivals(int slot, FederationReport& report) {
  const DiurnalLoadConfig& diurnal = config_.diurnal;
  if (!diurnal.enabled || session_pool_.empty()) return;
  const int global_slot = config_.start_slot + slot;

  // Sinusoidal day curve: weight 1 at peak_phase through the period,
  // 0 half a period away.
  const double period =
      static_cast<double>(std::max(1, diurnal.period_slots));
  const double phase =
      static_cast<double>(slot) / period - diurnal.peak_phase;
  const double weight =
      0.5 * (1.0 + std::cos(2.0 * 3.14159265358979323846 * phase));
  const double mean =
      diurnal.base_arrivals_per_slot +
      (diurnal.peak_arrivals_per_slot - diurnal.base_arrivals_per_slot) *
          weight;

  common::Rng arrival_rng = derived_rng(
      config_.seed ^ kArrivalSalt, static_cast<std::uint64_t>(slot), 0);
  const int count = poisson_draw(arrival_rng, mean);
  if (count <= 0) return;

  const auto& catalog = display::DeviceCatalog::standard();
  const survey::SyntheticPopulation population;
  long spawned = 0;
  for (int k = 0; k < count; ++k) {
    if (diurnal.max_users > 0 &&
        users_.size() >= static_cast<std::size_t>(diurnal.max_users)) {
      break;
    }
    const auto id = static_cast<std::uint64_t>(users_.size());
    const SessionSeed& channel = session_pool_[id % session_pool_.size()];
    // Same per-user derived stream as the start-slot audience: ids are
    // unique, so arrivals never collide with an existing user's draws.
    common::Rng device_rng = derived_rng(config_.seed, kDeviceSalt, id);

    FleetUser user;
    user.id = id;
    user.genre = channel.genre;
    user.bitrate_mbps = channel.bitrate_mbps;
    const auto& profile = catalog.sample(device_rng);
    user.spec = profile.spec;
    user.start_fraction = device_rng.truncated_normal(
        config_.initial_battery_mean, config_.initial_battery_std, 0.05,
        1.0);
    user.battery = battery::Battery(
        common::MilliwattHours{profile.battery_mwh *
                               config_.effective_capacity_scale},
        user.start_fraction);
    common::Rng survey_rng =
        derived_rng(config_.seed ^ kArrivalSalt, id, 1);
    const std::vector<survey::Participant> participants =
        population.generate(1, survey_rng);
    user.giveup_percent = participants[0].giveup_level;
    user.end_slot =
        global_slot + static_cast<int>(device_rng.uniform_int(
                          diurnal.min_lifetime_slots,
                          diurnal.max_lifetime_slots));
    users_.push_back(std::move(user));
    ++spawned;
  }
  report.arrivals += spawned;
  if (context_.metrics != nullptr && spawned > 0) {
    context_.metrics
        ->counter("lpvs_fleet_arrivals_total",
                  "Diurnal mid-run viewer arrivals")
        .add(spawned);
  }
}

void Federation::handle_crashes(int slot, FederationReport& report) {
  const fault::FaultInjector* faults = context_.faults;
  if (faults == nullptr ||
      !faults->site_enabled(fault::FaultSite::kServerCrash)) {
    return;
  }
  obs::MetricsRegistry* registry = context_.metrics;
  const int global_slot = config_.start_slot + slot;

  for (auto& [id, edge] : servers_) {
    if (edge->leaving) continue;
    if (!faults->should_drop(fault::FaultSite::kServerCrash, id,
                             static_cast<std::uint64_t>(global_slot))) {
      continue;
    }
    // The server's memory is gone: sessions, solve cache, slot counter.
    edge->sessions.clear();
    edge->cache.clear();
    edge->slots_run = 0;
    ++edge->report.failovers;
    ++report.failovers;
    if (registry != nullptr) {
      registry
          ->counter("fleet_failover_total",
                    "Server crashes recovered by checkpoint failover")
          .add(1);
    }
    if (context_.events != nullptr) {
      context_.events->record(
          {obs::EventKind::kFaultInjected, global_slot, /*device=*/-1,
           {{"site", static_cast<double>(
                         static_cast<int>(fault::FaultSite::kServerCrash))},
            {"server", static_cast<double>(id)}}});
    }

    // Failover: the peer holding the replicated checkpoint restores the
    // crashed server's logical cluster through the full decode path.
    common::StatusOr<Checkpoint> restored = checkpoints_.restore(id);
    if (!restored.ok()) continue;  // nothing replicated: full cold restart
    const Checkpoint& checkpoint = restored.value();
    const double staleness =
        static_cast<double>(global_slot - 1 - checkpoint.slot);
    obs::Histogram* staleness_hist = nullptr;
    if (registry != nullptr) {
      staleness_hist = &registry->histogram(
          "fleet_posterior_staleness_slots",
          obs::MetricsRegistry::linear_buckets(0.0, 1.0, 17),
          "Slots of posterior learning lost per restored session");
    }
    for (const SessionState& state : checkpoint.sessions) {
      // A user handed off after the checkpoint now lives on another
      // server; restoring the snapshot here would make two servers serve
      // (and drain) one user.
      const FleetUser& user = users_[static_cast<std::size_t>(state.user)];
      if (!user.placed || user.server != id) continue;
      ServerSession session;
      session.estimator = bayes::GammaEstimator::from_state(state.gamma);
      session.nig = bayes::NigGammaEstimator::from_state(state.nig);
      session.last_assignment = state.last_assignment;
      session.slots_served = state.slots_served;
      edge->sessions[state.user] = std::move(session);
      if (staleness_hist != nullptr) staleness_hist->observe(staleness);
    }
    edge->cache.import_entries(checkpoint.cache_entries);
    edge->slots_run = checkpoint.slots_run;
  }
}

void Federation::reconcile_placement(int slot, bool rebalancing,
                                     FederationReport& report) {
  obs::MetricsRegistry* registry = context_.metrics;
  const int global_slot = config_.start_slot + slot;
  const fault::FaultInjector* faults = context_.faults;

  for (FleetUser& user : users_) {
    // Trace lifetime: the channel's session ended, the viewer leaves.
    if (user.watching && global_slot >= user.end_slot) user.watching = false;
    const bool active = user.watching && !user.battery.empty();

    if (!active) {
      if (user.placed) {
        auto it = servers_.find(user.server);
        if (it != servers_.end()) it->second->sessions.erase(user.id);
        user.placed = false;
        // Orderly close: trace end, battery empty, or give-up.
        ++report.sessions_ended;
        if (registry != nullptr) {
          registry
              ->counter("lpvs_fleet_sessions_ended_total",
                        "Viewer sessions closed in order")
              .add(1);
        }
      }
      user.prev_epoch = user.epoch;
      continue;
    }

    if (placement_.servers().empty()) {
      user.placed = false;
      user.prev_epoch = user.epoch;
      continue;
    }
    const std::uint64_t desired = placement_.place(place_key(user.id,
                                                             user.epoch));

    if (!user.placed) {
      // First attach (or re-attach after inactivity): cold session, no
      // state to move.
      user.server = desired;
      user.placed = true;
      ++report.sessions_started;
      if (registry != nullptr) {
        registry
            ->counter("lpvs_fleet_sessions_started_total",
                      "Viewer session attaches (initial and re-attach)")
            .add(1);
      }
      EdgeServer& dest = server(desired);
      if (dest.sessions.find(user.id) == dest.sessions.end()) {
        dest.sessions[user.id] = ServerSession{};
        if (user.established) {
          ++dest.report.cold_restarts;
          if (registry != nullptr) {
            registry
                ->counter("fleet_cold_restarts_total",
                          "Sessions rebuilt at the prior after lost state")
                .add(1);
          }
        }
        user.established = true;
      }
      user.prev_epoch = user.epoch;
      continue;
    }

    if (desired == user.server) {
      // Stationary — but the owning server may have crashed without a
      // checkpoint, in which case the session must be rebuilt cold.
      EdgeServer& home = server(user.server);
      if (home.sessions.find(user.id) == home.sessions.end()) {
        home.sessions[user.id] = ServerSession{};
        ++home.report.cold_restarts;
        if (registry != nullptr) {
          registry
              ->counter("fleet_cold_restarts_total",
                        "Sessions rebuilt at the prior after lost state")
              .add(1);
        }
      }
      user.prev_epoch = user.epoch;
      continue;
    }

    // Migration: mobility redraws (epoch changed) or membership
    // rebalancing moved the user's rendezvous winner.
    const bool moved_by_rebalance = user.epoch == user.prev_epoch;
    if (moved_by_rebalance) {
      ++report.placement_moves;
      if (registry != nullptr) {
        registry
            ->counter("fleet_placement_moves_total",
                      "Users re-placed by server join/leave rebalancing")
            .add(1);
      }
    }

    EdgeServer& dest = server(desired);
    auto source_it = servers_.find(user.server);
    ServerSession* source_session = nullptr;
    if (source_it != servers_.end()) {
      auto sit = source_it->second->sessions.find(user.id);
      if (sit != source_it->second->sessions.end()) {
        source_session = &sit->second;
      }
    }

    bool installed = false;
    if (source_session != nullptr) {
      SessionState state;
      state.user = user.id;
      state.gamma = source_session->estimator.state();
      state.nig = source_session->nig.state();
      state.battery_fraction = user.battery.fraction();
      state.last_assignment = source_session->last_assignment;
      state.slots_served = source_session->slots_served;

      SessionState received;
      const HandoffOutcome outcome = handoff_.transfer(
          faults, state, static_cast<std::uint64_t>(global_slot), received);
      if (registry != nullptr) {
        registry
            ->counter("fleet_handoff_total",
                      "Session-state transfers attempted between servers")
            .add(1);
        if (outcome.attempts > 1) {
          registry
              ->counter("fleet_handoff_retries_total",
                        "Extra delivery attempts across all handoffs")
              .add(outcome.attempts - 1);
        }
      }
      if (outcome.transferred) {
        ServerSession session;
        session.estimator =
            bayes::GammaEstimator::from_state(received.gamma);
        session.nig = bayes::NigGammaEstimator::from_state(received.nig);
        session.last_assignment = received.last_assignment;
        session.slots_served = received.slots_served;
        dest.sessions[user.id] = std::move(session);
        installed = true;
        ++report.handoffs;
        ++dest.report.handoffs_in;
        if (source_it != servers_.end()) {
          ++source_it->second->report.handoffs_out;
        }
      } else {
        ++report.handoff_failures;
        if (registry != nullptr) {
          registry
              ->counter("fleet_handoff_failures_total",
                        "Handoffs that burned the retry budget (cold restart)")
              .add(1);
        }
      }
      source_it->second->sessions.erase(user.id);
    }

    if (!installed) {
      dest.sessions[user.id] = ServerSession{};
      ++dest.report.cold_restarts;
      if (registry != nullptr) {
        registry
            ->counter("fleet_cold_restarts_total",
                      "Sessions rebuilt at the prior after lost state")
            .add(1);
      }
    }
    user.server = desired;
    user.prev_epoch = user.epoch;
  }

  // Loss audit: every viewer who is still watching with charge left must
  // hold a serving session somewhere after reconciliation — crash recovery,
  // handoff fallback, and rebalancing all funnel through the branches
  // above, so anyone left stranded here is a genuinely lost session (the
  // soak's zero-lost-sessions SLO counts exactly this).
  for (const FleetUser& user : users_) {
    if (!user.watching || user.battery.empty()) continue;
    bool has_session = false;
    if (user.placed) {
      const auto it = servers_.find(user.server);
      has_session = it != servers_.end() &&
                    it->second->sessions.count(user.id) != 0;
    }
    if (!has_session) {
      ++report.sessions_lost;
      if (registry != nullptr) {
        registry
            ->counter("lpvs_fleet_sessions_lost_total",
                      "Active viewers stranded without a serving session")
            .add(1);
      }
    }
  }

  // Retire servers that left the placement once their users are gone.
  for (auto it = servers_.begin(); it != servers_.end();) {
    if (it->second->leaving && it->second->sessions.empty()) {
      departed_[it->first] = it->second->report;
      it = servers_.erase(it);
    } else {
      ++it;
    }
  }
  (void)rebalancing;
  (void)slot;
}

void Federation::serve_slot(int slot, FederationReport& report,
                            double& anxiety_accumulator) {
  const int global_slot = config_.start_slot + slot;
  const survey::AnxietyModel& anxiety = context_.anxiety_model();
  const fault::FaultInjector* faults = context_.faults;

  std::vector<EdgeServer*> active;
  active.reserve(servers_.size());
  for (auto& [id, edge] : servers_) {
    if (!edge->leaving) active.push_back(edge.get());
  }

  // The per-server body.  Each worker touches only its own server and that
  // server's users (placement partitions users across servers), plus
  // commutative registry counter adds inside the scheduler — so any thread
  // count produces the bit-identical report.  The scheduling context is
  // stripped of the fault injector and event sink: fleet faults live at the
  // federation layer (crash, handoff), not inside the solver, and an event
  // trace appended from racing workers would be order-nondeterministic.
  const auto serve_one = [&](std::size_t index) {
    EdgeServer& edge = *active[index];
    edge.slot_energy_mwh = 0.0;
    edge.slot_objective = 0.0;
    edge.slot_anxiety = 0.0;
    edge.slot_anxiety_samples = 0;
    edge.slot_selected = 0;
    edge.slot_scheduled = 0;
    edge.slot_capacity_violations = 0;
    edge.slot_degraded = 0;
    ++edge.slots_run;
    ++edge.report.slots_run;
    if (edge.sessions.empty()) return;

    core::SlotProblem problem;
    problem.compute_capacity = config_.compute_capacity;
    problem.storage_capacity = config_.storage_capacity_mb;
    problem.lambda = config_.lambda;
    std::vector<std::uint64_t> order;
    std::vector<media::Video> videos;
    std::vector<int> hint;
    order.reserve(edge.sessions.size());
    videos.reserve(edge.sessions.size());
    hint.reserve(edge.sessions.size());

    for (auto& [user_id, session] : edge.sessions) {
      FleetUser& user = users_[static_cast<std::size_t>(user_id)];
      // Content is a pure function of (seed, user, slot) — identical no
      // matter which server happens to own the user.
      common::Rng content_seed_rng =
          derived_rng(config_.seed, user_id,
                      static_cast<std::uint64_t>(global_slot));
      media::ContentGenerator generator(content_seed_rng());
      media::Video video = generator.generate(
          common::VideoId{static_cast<std::uint32_t>(
              user_id * 100000u + static_cast<std::uint64_t>(global_slot))},
          user.genre, config_.chunks_per_slot, user.bitrate_mbps,
          common::Seconds{config_.chunk_seconds});

      core::DeviceSlotInput input;
      input.id = common::DeviceId{static_cast<std::uint32_t>(user_id)};
      input.power_rates_mw.reserve(video.chunks.size());
      input.chunk_durations_s.reserve(video.chunks.size());
      for (const media::VideoChunk& chunk : video.chunks) {
        input.power_rates_mw.push_back(
            edge.estimator.rate(user.spec, chunk).value);
        input.chunk_durations_s.push_back(chunk.duration.value);
      }
      input.initial_energy_mwh = user.battery.remaining().value;
      input.battery_capacity_mwh = user.battery.capacity().value;
      input.gamma = session.estimator.expected_gamma();
      input.compute_cost = edge.resources.compute_cost(user.spec, video);
      input.storage_cost = edge.resources.storage_cost(video);

      hint.push_back(session.last_assignment != 0 ? 1 : 0);
      order.push_back(user_id);
      problem.devices.push_back(std::move(input));
      videos.push_back(std::move(video));
    }
    edge.slot_scheduled = static_cast<long>(problem.devices.size());

    // Seed the warm hint: the sessions' previous assignments, in this
    // slot's problem order.  After a handoff or failover the carried
    // last_assignment bits land index-correct here, so an arriving user
    // does not cold-start the destination's ILP stream.  The salted
    // fingerprint never exact-hits; the cache greedy-repairs the hint into
    // the B&B incumbent.
    if (config_.warm_start) {
      solver::IlpSolution hint_solution;
      hint_solution.status = solver::IlpStatus::kFeasible;
      hint_solution.x = hint;
      edge.cache.store(edge.info.id, kHintFingerprint, hint_solution);
    }

    core::RunContext scheduling_context =
        context_.with_fault_injector(nullptr)
            .with_trace(nullptr)
            .with_slot(global_slot);
    if (config_.warm_start) {
      scheduling_context =
          scheduling_context.with_solve_cache(&edge.cache, edge.info.id);
    }
    const core::Schedule schedule =
        scheduler_.schedule(problem, scheduling_context);
    edge.slot_objective = schedule.objective;
    edge.slot_degraded =
        schedule.rung != core::DegradationRung::kFullSolve ? 1 : 0;
    if (schedule.compute_used > problem.compute_capacity + 1e-9 ||
        schedule.storage_used > problem.storage_capacity + 1e-9) {
      ++edge.slot_capacity_violations;
    }

    for (std::size_t i = 0; i < order.size(); ++i) {
      FleetUser& user = users_[static_cast<std::size_t>(order[i])];
      ServerSession& session = edge.sessions[order[i]];
      const media::Video& video = videos[i];
      // Every chunk was priced once, into the problem row.
      const std::vector<double>& rates = problem.devices[i].power_rates_mw;
      const bool selected = schedule.x[i] != 0;
      const double true_gamma =
          edge.engine.video_gamma(user.spec, video, rates);

      session.last_assignment = selected ? 1 : 0;
      if (selected) {
        ++session.slots_served;
        ++edge.slot_selected;
      }

      for (std::size_t k = 0; k < video.chunks.size(); ++k) {
        const media::VideoChunk& chunk = video.chunks[k];
        const double rate = rates[k];
        const double psi = selected ? (1.0 - true_gamma) * rate : rate;
        edge.slot_anxiety += anxiety(user.battery.fraction());
        ++edge.slot_anxiety_samples;
        const common::MilliwattHours drawn =
            user.battery.drain(common::Milliwatts{psi}, chunk.duration);
        edge.slot_energy_mwh += drawn.value;
        user.watch_minutes += chunk.duration.value / 60.0;
        if (user.battery.empty()) {
          user.watching = false;
          break;
        }
        if (config_.enable_giveup && user.giveup_percent > 0 &&
            user.battery.percent() <=
                static_cast<double>(user.giveup_percent)) {
          user.watching = false;
          break;
        }
      }

      // End-of-slot gamma observation; noise keyed on (user, global slot),
      // server-independent, through the same lossy Bayes-report path the
      // emulator models (gated on that site being configured).
      if (selected) {
        common::Rng noise_rng =
            derived_rng(config_.seed ^ kBayesNoiseSalt, order[i],
                        static_cast<std::uint64_t>(global_slot));
        double observed =
            true_gamma + noise_rng.normal(0.0, config_.observation_noise);
        bool delivered = true;
        if (faults != nullptr &&
            faults->site_enabled(fault::FaultSite::kBayesReport)) {
          const fault::FaultDecision decision =
              faults->decide(fault::FaultSite::kBayesReport, order[i],
                             static_cast<std::uint64_t>(global_slot));
          if (decision.dropped()) delivered = false;
          if (decision.corrupted()) observed += decision.corrupt_factor;
        }
        if (delivered) {
          session.estimator.observe(observed);
          session.nig.observe(observed);
        }
      }
    }
  };

  if (config_.threads == 1 || active.size() <= 1) {
    for (std::size_t i = 0; i < active.size(); ++i) serve_one(i);
  } else {
    common::ThreadPool pool(config_.threads);
    common::parallel_for(pool, active.size(), serve_one);
  }

  // Sequential epilogue in sorted-server order: double summation order is
  // fixed, so totals are bit-identical at any thread count.
  for (EdgeServer* edge : active) {
    edge->report.scheduled_users += edge->slot_scheduled;
    edge->report.selected += edge->slot_selected;
    edge->report.energy_mwh += edge->slot_energy_mwh;
    edge->report.objective += edge->slot_objective;
    report.total_energy_mwh += edge->slot_energy_mwh;
    report.total_objective += edge->slot_objective;
    report.total_selected += edge->slot_selected;
    report.capacity_violations += edge->slot_capacity_violations;
    anxiety_accumulator += edge->slot_anxiety;
    report.anxiety_samples += edge->slot_anxiety_samples;
    if (edge->slot_scheduled > 0) {
      ++report.total_solves;
      report.degraded_solves += edge->slot_degraded;
    }
  }
}

void Federation::evaluate_autoscale(int slot, FederationReport& report) {
  const AutoscaleConfig& scale = config_.autoscale;
  if (!scale.enabled || scale.interval_slots <= 0) return;
  if ((slot + 1) % scale.interval_slots != 0) return;

  long live = 0;
  long sessions = 0;
  std::uint64_t highest_live = 0;
  for (const auto& [id, edge] : servers_) {
    if (edge->leaving) continue;
    ++live;
    sessions += static_cast<long>(edge->sessions.size());
    highest_live = std::max(highest_live, id);
  }

  // Window signals since the previous evaluation.  Baselines advance even
  // when the cooldown suppresses action, so the next decision sees a fresh
  // window instead of stale accumulated history.
  const long window_solves = report.total_solves - solves_at_last_eval_;
  const long window_degraded =
      report.degraded_solves - degraded_at_last_eval_;
  const long window_failovers = report.failovers - failovers_at_last_eval_;
  solves_at_last_eval_ = report.total_solves;
  degraded_at_last_eval_ = report.degraded_solves;
  failovers_at_last_eval_ = report.failovers;

  if (slot - last_scale_slot_ < scale.cooldown_slots) return;

  const double per_server =
      live > 0 ? static_cast<double>(sessions) / static_cast<double>(live)
               : 1e18;
  const double degraded_fraction =
      window_solves > 0
          ? static_cast<double>(window_degraded) /
                static_cast<double>(window_solves)
          : 0.0;

  const bool scale_out =
      live < scale.max_servers &&
      (per_server > scale.target_sessions_per_server * scale.high_watermark ||
       degraded_fraction > scale.degraded_fraction_out);
  // Scale-in needs slack on every signal; fresh failovers mean restored
  // sessions are re-learning from stale posteriors, the worst moment to
  // also force a rebalancing wave.
  const bool scale_in =
      !scale_out && live > scale.min_servers &&
      per_server < scale.target_sessions_per_server * scale.low_watermark &&
      degraded_fraction < 0.5 * scale.degraded_fraction_out &&
      window_failovers == 0;

  obs::MetricsRegistry* registry = context_.metrics;
  if (scale_out) {
    const std::uint64_t id = next_auto_server_++;
    placement_.add_server({id, 1.0});
    auto edge = std::make_unique<EdgeServer>();
    edge->info = {id, 1.0};
    edge->report.id = id;
    const auto old = departed_.find(id);
    if (old != departed_.end()) {
      edge->report = old->second;
      departed_.erase(old);
    }
    servers_[id] = std::move(edge);
    ++report.autoscale_joins;
    last_scale_slot_ = slot;
    if (registry != nullptr) {
      registry
          ->counter("lpvs_fleet_autoscale_joins_total",
                    "Servers added by the load-derived autoscaler")
          .add(1);
    }
  } else if (scale_in) {
    // Retire the youngest server: autoscale-minted ids are highest, so
    // scale-in unwinds scale-out before touching the configured fleet.
    placement_.remove_server(highest_live);
    const auto it = servers_.find(highest_live);
    if (it != servers_.end()) it->second->leaving = true;
    ++report.autoscale_leaves;
    last_scale_slot_ = slot;
    if (registry != nullptr) {
      registry
          ->counter("lpvs_fleet_autoscale_leaves_total",
                    "Servers retired by the load-derived autoscaler")
          .add(1);
    }
  }
}

void Federation::take_checkpoints(int slot) {
  if (config_.checkpoint_interval <= 0) return;
  if ((slot + 1) % config_.checkpoint_interval != 0) return;
  const int global_slot = config_.start_slot + slot;
  for (auto& [id, edge] : servers_) {
    if (edge->leaving) continue;
    Checkpoint checkpoint;
    checkpoint.server = id;
    checkpoint.slot = global_slot;
    checkpoint.slots_run = edge->slots_run;
    checkpoint.sessions.reserve(edge->sessions.size());
    for (const auto& [user_id, session] : edge->sessions) {
      SessionState state;
      state.user = user_id;
      state.gamma = session.estimator.state();
      state.nig = session.nig.state();
      state.battery_fraction =
          users_[static_cast<std::size_t>(user_id)].battery.fraction();
      state.last_assignment = session.last_assignment;
      state.slots_served = session.slots_served;
      checkpoint.sessions.push_back(std::move(state));
    }
    checkpoint.cache_entries = edge->cache.export_entries();
    checkpoints_.put(id, checkpoint.encode());
  }
  if (context_.metrics != nullptr) {
    context_.metrics
        ->gauge("fleet_checkpoint_bytes",
                "Total bytes of replicated server checkpoints")
        .set(static_cast<double>(checkpoints_.stored_bytes()));
  }
}

FederationReport Federation::run() {
  setup_servers();
  setup_users();
  next_auto_server_ = config_.autoscale.first_server_id;

  FederationReport report;
  report.users = static_cast<long>(users_.size());
  obs::MetricsRegistry* registry = context_.metrics;

  double anxiety_accumulator = 0.0;
  for (int slot = 0; slot < config_.slots; ++slot) {
    const int global_slot = config_.start_slot + slot;

    // (0) Diurnal arrivals: new viewers join following the day curve.
    spawn_arrivals(slot, report);

    // (1) Membership: scheduled joins/leaves fire at the slot start, each
    // rebalancing only the users whose rendezvous winner changed.
    bool rebalancing = false;
    for (const MembershipEvent& event : config_.membership) {
      if (event.slot != slot) continue;
      rebalancing = true;
      if (event.join) {
        placement_.add_server({event.server, event.weight});
        if (servers_.find(event.server) == servers_.end()) {
          auto edge = std::make_unique<EdgeServer>();
          edge->info = {event.server, event.weight};
          edge->report.id = event.server;
          // A re-joining server continues its old report (and starts with
          // empty state: its memory did not survive the absence).
          const auto old = departed_.find(event.server);
          if (old != departed_.end()) {
            edge->report = old->second;
            departed_.erase(old);
          }
          servers_[event.server] = std::move(edge);
        } else {
          servers_[event.server]->leaving = false;
          servers_[event.server]->info.capacity_weight = event.weight;
        }
      } else {
        placement_.remove_server(event.server);
        const auto it = servers_.find(event.server);
        if (it != servers_.end()) it->second->leaving = true;
      }
    }

    // (2) Crashes and checkpoint failover.
    handle_crashes(slot, report);

    // (3) Mobility: each active user may roam, redrawing their placement.
    if (config_.mobility_rate > 0.0) {
      for (FleetUser& user : users_) {
        if (!user.watching || user.battery.empty()) continue;
        common::Rng mobility_rng =
            derived_rng(config_.seed ^ kMobilitySalt, user.id,
                        static_cast<std::uint64_t>(global_slot));
        if (mobility_rng.bernoulli(config_.mobility_rate)) ++user.epoch;
      }
    }

    // (4) Reconcile: desired vs. actual placement; moved users hand off.
    reconcile_placement(slot, rebalancing, report);

    // (5) Serve the slot on every server (parallel across servers).  The
    // wall time of the serve phase is the fleet-level request->schedule
    // latency the soak's p99 SLO reads.
    const long anxiety_samples_before = report.anxiety_samples;
    const double anxiety_before = anxiety_accumulator;
    const auto serve_start = std::chrono::steady_clock::now();
    serve_slot(slot, report, anxiety_accumulator);
    const double serve_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - serve_start)
            .count();
    ++report.slots_run;

    long live_servers = 0;
    long live_sessions = 0;
    for (const auto& [id, edge] : servers_) {
      if (edge->leaving) continue;
      ++live_servers;
      live_sessions += static_cast<long>(edge->sessions.size());
    }
    long active_users = 0;
    for (const FleetUser& user : users_) {
      if (user.watching && !user.battery.empty()) ++active_users;
    }
    report.peak_servers =
        std::max(report.peak_servers, static_cast<int>(live_servers));

    if (registry != nullptr) {
      registry->counter("fleet_slots_total", "Federation slots executed")
          .add(1);
      registry
          ->histogram("lpvs_fleet_slot_serve_ms", serve_ms_buckets(),
                      "Wall-clock serve phase per federation slot "
                      "(fleet-level request->schedule)")
          .observe(serve_ms);
      registry
          ->gauge("lpvs_fleet_active_users",
                  "Viewers watching with charge left")
          .set(static_cast<double>(active_users));
      registry
          ->gauge("lpvs_fleet_active_servers", "Live (non-leaving) servers")
          .set(static_cast<double>(live_servers));
      registry
          ->gauge("lpvs_fleet_sessions", "Serving sessions across the fleet")
          .set(static_cast<double>(live_sessions));
      const long slot_samples =
          report.anxiety_samples - anxiety_samples_before;
      registry
          ->gauge("lpvs_fleet_slot_anxiety",
                  "Mean anxiety across this slot's chunk plays")
          .set(slot_samples > 0
                   ? (anxiety_accumulator - anxiety_before) /
                         static_cast<double>(slot_samples)
                   : 0.0);
      registry
          ->gauge("lpvs_fleet_energy_mwh",
                  "Cumulative fleet energy drawn (mWh)")
          .set(report.total_energy_mwh);
    }

    // (6) Load-derived membership control.
    evaluate_autoscale(slot, report);

    // (7) Replicate end-of-interval checkpoints.
    take_checkpoints(slot);

    // (8) Export: hand the slot's simulated clock to the telemetry hook.
    if (config_.slot_hook) {
      const auto sim_time_ms = static_cast<std::int64_t>(
          static_cast<double>(slot + 1) * config_.slot_seconds * 1000.0);
      config_.slot_hook(slot, sim_time_ms);
    }

    bool any_active = false;
    for (const FleetUser& user : users_) {
      if (user.watching && !user.battery.empty()) {
        any_active = true;
        break;
      }
    }
    // A diurnal run keeps going through an empty trough: the arrival
    // process will refill the audience.
    if (!any_active && !config_.diurnal.enabled) break;
  }

  report.mean_anxiety =
      report.anxiety_samples > 0
          ? anxiety_accumulator / static_cast<double>(report.anxiety_samples)
          : 0.0;

  // Final per-server rows: live servers and departed ones, sorted by id.
  std::map<std::uint64_t, ServerReport> rows = departed_;
  for (const auto& [id, edge] : servers_) rows[id] = edge->report;
  report.servers.reserve(rows.size());
  for (auto& [id, row] : rows) report.servers.push_back(row);

  // State digest: every user's end state plus every surviving session's
  // posterior, as bit patterns.  Two runs agree on this iff they agree on
  // all of it.
  wire::Writer digest;
  for (const FleetUser& user : users_) {
    digest.u64(user.id);
    digest.u8(user.watching ? 1 : 0);
    digest.f64(user.battery.fraction());
    digest.f64(user.watch_minutes);
  }
  for (const auto& [id, edge] : servers_) {
    digest.u64(id);
    for (const auto& [user_id, session] : edge->sessions) {
      digest.u64(user_id);
      const bayes::GammaEstimator::State gamma = session.estimator.state();
      digest.f64(gamma.mean);
      digest.f64(gamma.variance);
      digest.u64(gamma.observations);
      const bayes::NigGammaEstimator::State nig = session.nig.state();
      digest.f64(nig.mean);
      digest.f64(nig.kappa);
      digest.f64(nig.alpha);
      digest.f64(nig.beta);
      digest.u8(session.last_assignment);
      digest.u32(session.slots_served);
    }
  }
  report.state_digest =
      wire::checksum(digest.bytes(), digest.bytes().size());
  return report;
}

}  // namespace lpvs::fleet
