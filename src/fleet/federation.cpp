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
#include "lpvs/core/slot_kernel.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/fleet/wire.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/solver/solve_cache.hpp"
#include "lpvs/survey/population.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::fleet {
namespace {

using common::derived_rng;

/// Seed salts for the federation's own derived streams (distinct from the
/// emulator's 0xF00D/0x5717C4 family).
constexpr std::uint64_t kMobilitySalt = 0x0F1EE7u;
constexpr std::uint64_t kDeviceSalt = 0xF1u;
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

/// Placement key for a user: the mobility epoch in the high bits redraws
/// the rendezvous permutation for this user only, leaving everyone else's
/// assignment untouched.
std::uint64_t place_key(std::uint64_t user, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(epoch) << 32) ^ user;
}

/// A registry counter looked up on its first event: a snapshot holds the
/// same series as one that looks it up per event, and later events skip
/// the registry's name lookup and mutex.  Null registry: add() is a no-op.
class LazyCounter {
 public:
  LazyCounter(const char* name, const char* help) : name_(name), help_(help) {}

  void add(obs::MetricsRegistry* registry, long delta = 1) {
    if (registry == nullptr) return;
    if (counter_ == nullptr) counter_ = &registry->counter(name_, help_);
    counter_->add(delta);
  }

 private:
  const char* name_;
  const char* help_;
  obs::Counter* counter_ = nullptr;
};

}  // namespace

/// The federation's registry counters.  Only the serial phases count, so
/// the lazy handles need no synchronisation.
struct Federation::Counters {
  LazyCounter slots{"fleet_slots_total", "Federation slots executed"};
  LazyCounter arrivals{"lpvs_fleet_arrivals_total",
                       "Diurnal mid-run viewer arrivals"};
  LazyCounter failovers{"fleet_failover_total",
                        "Server crashes recovered by checkpoint failover"};
  LazyCounter sessions_started{
      "lpvs_fleet_sessions_started_total",
      "Viewer session attaches (initial and re-attach)"};
  LazyCounter sessions_ended{"lpvs_fleet_sessions_ended_total",
                             "Viewer sessions closed in order"};
  LazyCounter sessions_lost{
      "lpvs_fleet_sessions_lost_total",
      "Active viewers stranded without a serving session"};
  LazyCounter cold_restarts{"fleet_cold_restarts_total",
                            "Sessions rebuilt at the prior after lost state"};
  LazyCounter placement_moves{
      "fleet_placement_moves_total",
      "Users re-placed by server join/leave rebalancing"};
  LazyCounter handoffs{"fleet_handoff_total",
                       "Session-state transfers attempted between servers"};
  LazyCounter handoff_retries{"fleet_handoff_retries_total",
                              "Extra delivery attempts across all handoffs"};
  LazyCounter handoff_failures{
      "fleet_handoff_failures_total",
      "Handoffs that burned the retry budget (cold restart)"};
  LazyCounter autoscale_joins{"lpvs_fleet_autoscale_joins_total",
                              "Servers added by the load-derived autoscaler"};
  LazyCounter autoscale_leaves{
      "lpvs_fleet_autoscale_leaves_total",
      "Servers retired by the load-derived autoscaler"};
};

/// One emulated viewer: the device-side ground truth (battery, watching
/// state, content identity).  Server-side learned state lives in the
/// sessions; a crash can lose the learning, never the device.
struct Federation::FleetUser {
  // Fields run from narrow to wide within each group so the struct packs
  // without padding: a diurnal day holds thousands of users.
  std::uint64_t id = 0;
  media::Genre genre = media::Genre::kIrlChat;
  bool watching = true;
  bool placed = false;
  /// A session existed at some point; re-creating one afterwards is a cold
  /// restart (learned state lost), unlike the initial attach.
  bool established = false;
  int giveup_percent = 10;
  double bitrate_mbps = 3.0;
  display::DisplaySpec spec;
  battery::Battery battery;
  double watch_minutes = 0.0;
  int end_slot = 0;  ///< trace slot after which the user stops watching
  std::uint32_t epoch = 0;       ///< mobility epoch (placement key salt)
  std::uint32_t prev_epoch = 0;  ///< epoch at the previous reconcile
  std::uint32_t winner_epoch = 0;  ///< epoch `winner` was placed under
  std::uint64_t server = 0;
  /// The memoized rendezvous winner and the membership generation it was
  /// placed under (the sentinel: not placed yet).
  std::uint64_t winner = 0;
  std::uint64_t winner_generation = ~std::uint64_t{0};

  bool active() const { return watching && !battery.empty(); }

  /// place() of this user's key, re-run only when their epoch or the
  /// membership moved since the last call.
  std::uint64_t rendezvous_winner(const Placement& placement) {
    if (winner_epoch != epoch || winner_generation != placement.generation()) {
      winner = placement.place(place_key(id, epoch));
      winner_epoch = epoch;
      winner_generation = placement.generation();
    }
    return winner;
  }
};

/// Per-session learned state held by the owning server (what handoff moves
/// and checkpoints snapshot).
struct ServerSession {
  bayes::GammaEstimator estimator;
  bayes::NigGammaEstimator nig;
  std::uint8_t last_assignment = 0;
  std::uint32_t slots_served = 0;
};

/// One fork-join runner's serve-phase scratch, reused by every server the
/// runner serves: the cluster-slot step (rows, videos, pricing) and the
/// member rows, their sessions and the warm hint, in session order.  The
/// federation holds one per thread, not one per server, so what stays
/// resident between slots does not grow with the fleet.
struct Federation::ServeScratch {
  core::ClusterSlot step;
  std::vector<core::SlotMember> members;
  std::vector<ServerSession*> sessions;
  std::vector<int> hint;
};

/// One emulated edge server.  Owns its sessions and its solve cache (one
/// warm-start stream keyed by the logical server id); chunk pricing comes
/// from the slot kernel.
struct Federation::EdgeServer {
  ServerInfo info;
  std::map<std::uint64_t, ServerSession> sessions;  // user-id order
  solver::SolveCache cache;
  std::uint64_t slots_run = 0;
  ServerReport report;
  transform::TransformEngine engine;
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
      placement_(std::vector<ServerInfo>{}),
      pool_(common::helper_pool(config_.threads)),
      serve_scratch_(pool_ == nullptr ? 1 : pool_->thread_count() + 1),
      counters_(std::make_unique<Counters>()) {
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
  live_.clear();

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
    const double start_fraction = device_rng.truncated_normal(
        config_.initial_battery_mean, config_.initial_battery_std, 0.05, 1.0);
    user.battery = battery::Battery(
        common::MilliwattHours{profile.battery_mwh * config_.effective_capacity_scale},
        start_fraction);
    user.giveup_percent =
        participants[static_cast<std::size_t>(n)].giveup_level;
    user.end_slot = session->end_slot();
    users_.push_back(std::move(user));
    live_.push_back(static_cast<std::uint32_t>(n));
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
    const double start_fraction = device_rng.truncated_normal(
        config_.initial_battery_mean, config_.initial_battery_std, 0.05,
        1.0);
    user.battery = battery::Battery(
        common::MilliwattHours{profile.battery_mwh *
                               config_.effective_capacity_scale},
        start_fraction);
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
    live_.push_back(static_cast<std::uint32_t>(id));
    ++spawned;
  }
  report.arrivals += spawned;
  if (spawned > 0) counters_->arrivals.add(context_.metrics, spawned);
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
    counters_->failovers.add(registry);
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
    edge->slots_run = checkpoint.slots_run;
  }
}

void Federation::reconcile_placement(int slot, FederationReport& report) {
  obs::MetricsRegistry* registry = context_.metrics;
  const int global_slot = config_.start_slot + slot;
  const fault::FaultInjector* faults = context_.faults;
  Counters& counters = *counters_;

  for (const std::uint32_t id : live_) {
    FleetUser& user = users_[id];
    // Trace lifetime: the channel's session ended, the viewer leaves.
    if (user.watching && global_slot >= user.end_slot) user.watching = false;

    if (!user.active()) {
      if (user.placed) {
        auto it = servers_.find(user.server);
        if (it != servers_.end()) it->second->sessions.erase(user.id);
        user.placed = false;
        // Orderly close: trace end, battery empty, or give-up.
        ++report.sessions_ended;
        counters.sessions_ended.add(registry);
      }
      user.prev_epoch = user.epoch;
      continue;
    }

    if (placement_.servers().empty()) {
      user.placed = false;
      user.prev_epoch = user.epoch;
      continue;
    }
    const std::uint64_t desired = user.rendezvous_winner(placement_);

    if (!user.placed) {
      // First attach (or re-attach after inactivity): cold session, no
      // state to move.
      user.server = desired;
      user.placed = true;
      ++report.sessions_started;
      counters.sessions_started.add(registry);
      EdgeServer& dest = server(desired);
      if (dest.sessions.find(user.id) == dest.sessions.end()) {
        dest.sessions[user.id] = ServerSession{};
        if (user.established) {
          ++dest.report.cold_restarts;
          counters.cold_restarts.add(registry);
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
        counters.cold_restarts.add(registry);
      }
      user.prev_epoch = user.epoch;
      continue;
    }

    // Migration: mobility redraws (epoch changed) or membership
    // rebalancing moved the user's rendezvous winner.
    const bool moved_by_rebalance = user.epoch == user.prev_epoch;
    if (moved_by_rebalance) {
      ++report.placement_moves;
      counters.placement_moves.add(registry);
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
      counters.handoffs.add(registry);
      if (outcome.attempts > 1) {
        counters.handoff_retries.add(registry, outcome.attempts - 1);
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
        counters.handoff_failures.add(registry);
      }
      source_it->second->sessions.erase(user.id);
    }

    if (!installed) {
      dest.sessions[user.id] = ServerSession{};
      ++dest.report.cold_restarts;
      counters.cold_restarts.add(registry);
    }
    user.server = desired;
    user.prev_epoch = user.epoch;
  }

  // Inactive users are unplaced by now: close them for good.
  std::erase_if(live_, [&](std::uint32_t id) { return !users_[id].active(); });
  assert(closed_users_stay_closed());

  // Loss audit: every viewer who is still watching with charge left must
  // hold a serving session somewhere after reconciliation — crash recovery,
  // handoff fallback, and rebalancing all funnel through the branches
  // above, so anyone left stranded here is a genuinely lost session (the
  // soak's zero-lost-sessions SLO counts exactly this).
  for (const std::uint32_t id : live_) {
    const FleetUser& user = users_[id];
    bool has_session = false;
    if (user.placed) {
      const auto it = servers_.find(user.server);
      has_session = it != servers_.end() &&
                    it->second->sessions.count(user.id) != 0;
    }
    if (!has_session) {
      ++report.sessions_lost;
      counters.sessions_lost.add(registry);
    }
  }

  // Retire servers that left the placement once their users are gone.
  for (auto it = servers_.begin(); it != servers_.end();) {
    if (it->second->leaving && it->second->sessions.empty()) {
      departed_[it->first] = it->second->report;
      checkpoints_.erase(it->first);
      it = servers_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Federation::closed_users_stay_closed() const {
  std::size_t next_live = 0;
  for (std::size_t id = 0; id < users_.size(); ++id) {
    if (next_live < live_.size() && live_[next_live] == id) {
      ++next_live;
    } else if (users_[id].placed || users_[id].active()) {
      return false;
    }
  }
  return next_live == live_.size();
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

  // The per-server body.  Each runner touches only its own server, that
  // server's users (placement partitions users across servers) and its own
  // scratch, plus commutative registry counter adds inside the scheduler —
  // so any thread count produces the bit-identical report.  The scheduling
  // context is stripped of the fault injector and event sink: fleet faults
  // live at the federation layer (crash, handoff), not inside the solver,
  // and an event trace appended from racing workers would be
  // order-nondeterministic.
  const auto serve_one = [&](std::size_t index, std::size_t runner) {
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

    // This runner's scratch: no other thread uses it during this call.
    ServeScratch& scratch = serve_scratch_[runner];
    std::vector<core::SlotMember>& members = scratch.members;
    std::vector<ServerSession*>& sessions = scratch.sessions;
    std::vector<int>& hint = scratch.hint;
    members.clear();
    sessions.clear();
    hint.clear();
    for (auto& [user_id, session] : edge.sessions) {
      const FleetUser& user = users_[static_cast<std::size_t>(user_id)];
      members.push_back(core::SlotMember{
          .user = user_id,
          .spec = &user.spec,
          .genre = user.genre,
          .bitrate_mbps = user.bitrate_mbps,
          .energy_mwh = user.battery.remaining().value,
          .capacity_mwh = user.battery.capacity().value,
          .gamma = session.estimator.expected_gamma()});
      sessions.push_back(&session);
      hint.push_back(session.last_assignment != 0 ? 1 : 0);
    }
    core::ClusterSlot& step = scratch.step;
    step.assemble(config_, static_cast<std::uint64_t>(global_slot), members);
    edge.slot_scheduled = static_cast<long>(members.size());

    // Seed the warm hint: the sessions' previous assignments, in this
    // slot's problem order.  After a handoff or failover the carried
    // last_assignment bits land index-correct here, so an arriving user
    // does not cold-start the destination's ILP stream.  The cache
    // greedy-repairs the hint into the B&B incumbent.
    edge.cache.store(edge.info.id, hint);

    const core::CheckedSchedule checked = step.solve(
        scheduler_, context_.with_fault_injector(nullptr)
                        .with_trace(nullptr)
                        .with_slot(global_slot)
                        .with_solve_cache(&edge.cache, edge.info.id));
    const core::Schedule& schedule = checked.schedule;
    edge.slot_objective = schedule.objective;
    edge.slot_degraded =
        schedule.rung != core::DegradationRung::kFullSolve ? 1 : 0;
    if (!checked.within_capacity) ++edge.slot_capacity_violations;

    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::uint64_t user_id = members[i].user;
      FleetUser& user = users_[static_cast<std::size_t>(user_id)];
      ServerSession& session = *sessions[i];
      const media::Video& video = step.video(i);
      // Every chunk was priced once, into the problem row.
      const std::vector<double>& rates =
          step.problem().devices[i].power_rates_mw;
      const bool selected = schedule.x[i] != 0;
      const double true_gamma =
          edge.engine.video_gamma(user.spec, video, rates);

      session.last_assignment = selected ? 1 : 0;
      if (selected) {
        ++session.slots_served;
        ++edge.slot_selected;
      }

      const core::PlaybackEnd end = core::play_slot(
          user.battery, video, rates, selected, true_gamma,
          config_.enable_giveup ? user.giveup_percent : 0, anxiety,
          edge.slot_anxiety, edge.slot_anxiety_samples, user.watch_minutes,
          [&](double drawn_mwh) { edge.slot_energy_mwh += drawn_mwh; });
      if (end != core::PlaybackEnd::kWatching) user.watching = false;

      // End-of-slot gamma observation, keyed on (user, global slot) so it
      // is server-independent.
      if (selected) {
        (void)core::observe_gamma(session.estimator, session.nig, true_gamma,
                                  config_.observation_noise, config_.seed,
                                  user_id,
                                  static_cast<std::uint64_t>(global_slot),
                                  faults);
      }
    }
  };

  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < active.size(); ++i) serve_one(i, 0);
  } else {
    common::parallel_for(*pool_, active.size(), serve_one);
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
    counters_->autoscale_joins.add(context_.metrics);
  } else if (scale_in) {
    // Retire the youngest server: autoscale-minted ids are highest, so
    // scale-in unwinds scale-out before touching the configured fleet.
    placement_.remove_server(highest_live);
    const auto it = servers_.find(highest_live);
    if (it != servers_.end()) it->second->leaving = true;
    ++report.autoscale_leaves;
    last_scale_slot_ = slot;
    counters_->autoscale_leaves.add(context_.metrics);
  }
}

void Federation::take_checkpoints(int slot) {
  if (config_.checkpoint_interval <= 0) return;
  if ((slot + 1) % config_.checkpoint_interval != 0) return;
  const auto start = std::chrono::steady_clock::now();
  const int global_slot = config_.start_slot + slot;

  std::vector<const EdgeServer*> live;
  live.reserve(servers_.size());
  for (const auto& [id, edge] : servers_) {
    if (!edge->leaving) live.push_back(edge.get());
  }

  // The per-server encode.  A worker only reads its server's sessions and
  // counters and its users' batteries, and it writes only its own frame —
  // so the frames are the same bytes at any thread count.
  std::vector<std::vector<std::uint8_t>> frames(live.size());
  const auto encode_one = [&](std::size_t index) {
    const EdgeServer& edge = *live[index];
    Checkpoint checkpoint;
    checkpoint.server = edge.info.id;
    checkpoint.slot = global_slot;
    checkpoint.slots_run = edge.slots_run;
    checkpoint.sessions.reserve(edge.sessions.size());
    for (const auto& [user_id, session] : edge.sessions) {
      SessionState& state = checkpoint.sessions.emplace_back();
      state.user = user_id;
      state.gamma = session.estimator.state();
      state.nig = session.nig.state();
      state.battery_fraction =
          users_[static_cast<std::size_t>(user_id)].battery.fraction();
      state.last_assignment = session.last_assignment;
      state.slots_served = session.slots_served;
    }
    frames[index] = checkpoint.encode();
  };

  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < live.size(); ++i) encode_one(i);
  } else {
    common::parallel_for(*pool_, live.size(), encode_one);
  }

  // Replicate on the calling thread, in server-id order.
  for (std::size_t i = 0; i < live.size(); ++i) {
    checkpoints_.put(live[i]->info.id, std::move(frames[i]));
  }
  if (context_.metrics != nullptr) {
    context_.metrics
        ->gauge("fleet_checkpoint_bytes",
                "Total bytes of replicated server checkpoints")
        .set(static_cast<double>(checkpoints_.stored_bytes()));
    context_.metrics
        ->histogram("lpvs_fleet_checkpoint_ms", serve_ms_buckets(),
                    "Wall-clock checkpoint phase (encode + replicate) per "
                    "checkpointing federation slot")
        .observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
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
    const auto slot_start = std::chrono::steady_clock::now();

    // (0) Diurnal arrivals: new viewers join following the day curve.
    spawn_arrivals(slot, report);

    // (1) Membership: scheduled joins/leaves fire at the slot start, each
    // rebalancing only the users whose rendezvous winner changed.
    for (const MembershipEvent& event : config_.membership) {
      if (event.slot != slot) continue;
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
      for (const std::uint32_t id : live_) {
        FleetUser& user = users_[id];
        if (!user.active()) continue;
        common::Rng mobility_rng =
            derived_rng(config_.seed ^ kMobilitySalt, user.id,
                        static_cast<std::uint64_t>(global_slot));
        if (mobility_rng.bernoulli(config_.mobility_rate)) ++user.epoch;
      }
    }

    // (4) Reconcile: desired vs. actual placement; moved users hand off.
    reconcile_placement(slot, report);

    // (5) Serve the slot on every server (parallel across servers).  The
    // wall time of the serve phase is the fleet-level request->schedule
    // latency the soak's p99 SLO reads.
    const long anxiety_samples_before = report.anxiety_samples;
    const double anxiety_before = anxiety_accumulator;
    const auto serve_start = std::chrono::steady_clock::now();
    const double pre_serve_ms =
        std::chrono::duration<double, std::milli>(serve_start - slot_start)
            .count();
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
    for (const std::uint32_t id : live_) {
      if (users_[id].active()) ++active_users;
    }
    report.peak_servers =
        std::max(report.peak_servers, static_cast<int>(live_servers));

    counters_->slots.add(registry);
    if (registry != nullptr) {
      registry
          ->histogram("lpvs_fleet_pre_serve_ms", serve_ms_buckets(),
                      "Wall-clock pre-serve phases (arrivals, membership, "
                      "crashes, mobility, reconcile) per federation slot")
          .observe(pre_serve_ms);
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

    const bool any_active =
        std::any_of(live_.begin(), live_.end(),
                    [&](std::uint32_t id) { return users_[id].active(); });
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
