#include "lpvs/emu/daily_life.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/batch_scheduler.hpp"
#include "lpvs/core/slot_kernel.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/media/video.hpp"

namespace lpvs::emu {
namespace {

constexpr int kMinutesPerDay = 16 * 60;  // waking hours simulated
constexpr int kSlotMinutes = 5;          // fleet-mode scheduling cadence

struct UserState {
  display::DisplaySpec spec;
  battery::Battery battery;
  int giveup_percent = 10;
  media::Genre genre = media::Genre::kIrlChat;
  double playback_mw = 900.0;  ///< untransformed average playback power
  double gamma = 0.3;          ///< device's realized saving when served
  /// Edge resource costs of transforming this user's stream (fleet mode).
  double compute_cost = 0.45;
  double storage_cost = 75.0;
};

/// Builds the fleet: hardware from the catalog, give-up levels from the
/// survey population, playback power and gamma from the physics models
/// over genre-typical content.  Consumes rng.fork(1) then one fork per
/// user, in user order — both entry points share this so their fleets
/// (and the coin-flip path's historical outputs) are identical.
std::vector<UserState> build_users(const DailyLifeConfig& config,
                                   common::Rng& rng) {
  const auto& catalog = display::DeviceCatalog::standard();
  const transform::TransformEngine engine;

  const survey::SyntheticPopulation population;
  common::Rng population_rng = rng.fork(1);
  const auto participants = population.generate(config.users, population_rng);
  std::vector<UserState> users;
  users.reserve(static_cast<std::size_t>(config.users));
  for (int u = 0; u < config.users; ++u) {
    common::Rng user_rng = rng.fork(100 + static_cast<std::uint64_t>(u));
    UserState user;
    const auto& profile = catalog.sample(user_rng);
    user.spec = profile.spec;
    // Same session-scale battery budget as the slot emulator.
    user.battery = battery::Battery(
        common::MilliwattHours{profile.battery_mwh * 0.25}, 1.0);
    user.giveup_percent =
        participants[static_cast<std::size_t>(u)].giveup_level;
    user.genre = static_cast<media::Genre>(
        user_rng.uniform_int(0, media::kGenreCount - 1));
    media::ContentGenerator content(user_rng());
    const media::Video sample_video = content.generate(
        common::VideoId{static_cast<std::uint32_t>(u)}, user.genre, 30,
        3.0);
    std::vector<double> rates(sample_video.chunks.size());
    core::price_chunks(user.spec, sample_video.chunks, rates);
    double mw = 0.0;
    for (const double rate : rates) mw += rate;
    user.playback_mw = mw / static_cast<double>(sample_video.chunks.size());
    user.gamma = engine.video_gamma(user.spec, sample_video);
    // Extra draws past the original sequence, so the coin-flip path's
    // fleet is unchanged: edge costs only matter to the fleet mode.
    user.compute_cost = user_rng.uniform(0.3, 0.8);
    user.storage_cost = user_rng.uniform(50.0, 150.0);
    users.push_back(std::move(user));
  }
  return users;
}

/// One user's plan for one day: session (start, length) pairs sorted by
/// start, plus an optional opportunistic top-up minute.
struct DayPlan {
  std::vector<std::pair<int, int>> sessions;
  int topup_minute = -1;
};

/// Draws a day plan; consumes `day_rng` exactly as the original
/// user-major loop did (hour coins, then per-session length/start, then
/// the top-up coin), so both entry points see the same worlds.
DayPlan plan_day(const DailyLifeConfig& config, common::Rng& day_rng) {
  DayPlan plan;
  int session_count = 0;
  for (int h = 0; h < 16; ++h) {
    if (day_rng.bernoulli(config.sessions_per_day / 16.0)) ++session_count;
  }
  for (int s = 0; s < session_count; ++s) {
    const int length = std::clamp(
        static_cast<int>(std::lround(day_rng.lognormal(
            config.session_log_mean, config.session_log_sigma))),
        5, 4 * 60);
    const int start =
        static_cast<int>(day_rng.uniform_int(0, kMinutesPerDay - 1));
    plan.sessions.emplace_back(start, length);
  }
  std::sort(plan.sessions.begin(), plan.sessions.end());
  plan.topup_minute =
      day_rng.bernoulli(config.opportunistic_charge_rate)
          ? static_cast<int>(day_rng.uniform_int(0, kMinutesPerDay - 1))
          : -1;
  return plan;
}

}  // namespace

DailyLifeReport simulate_daily_life(const DailyLifeConfig& config,
                                    const survey::AnxietyModel& anxiety) {
  assert(config.users > 0 && config.days > 0);
  common::Rng rng(config.seed);
  std::vector<UserState> users = build_users(config, rng);

  DailyLifeReport report;
  double anxiety_minutes = 0.0;
  double warning_minutes = 0.0;
  double viewing_minutes = 0.0;

  for (int u = 0; u < config.users; ++u) {
    UserState& user = users[static_cast<std::size_t>(u)];
    common::Rng day_rng = rng.fork(5000 + static_cast<std::uint64_t>(u));
    for (int day = 0; day < config.days; ++day) {
      // Overnight charge to full.
      user.battery = battery::Battery(user.battery.capacity(), 1.0);
      const DayPlan plan = plan_day(config, day_rng);

      std::size_t next_session = 0;
      int session_remaining = 0;
      bool session_abandoned = false;
      bool session_served = false;
      for (int minute = 0; minute < kMinutesPerDay; ++minute) {
        if (minute == plan.topup_minute) {
          user.battery = battery::Battery(user.battery.capacity(), 1.0);
        }
        // Session management.
        if (session_remaining == 0 && next_session < plan.sessions.size() &&
            minute >= plan.sessions[next_session].first) {
          session_remaining = plan.sessions[next_session].second;
          // Serving decision keyed by (seed, user, day, session) so that
          // with/without-LPVS runs see identical worlds.
          common::Rng serve_rng(config.seed ^
                                (static_cast<std::uint64_t>(u) << 40) ^
                                (static_cast<std::uint64_t>(day) << 20) ^
                                next_session);
          session_served = config.lpvs_enabled &&
                           serve_rng.uniform() < config.served_fraction;
          ++next_session;
          ++report.sessions_started;
          session_abandoned = false;
        }
        double draw_mw = config.idle_mw;
        if (session_remaining > 0 && !session_abandoned) {
          draw_mw = session_served
                        ? (1.0 - user.gamma) * user.playback_mw
                        : user.playback_mw;
          viewing_minutes += 1.0;
        }
        user.battery.drain(common::Milliwatts{draw_mw},
                           common::Seconds{60.0});
        if (session_remaining > 0) {
          --session_remaining;
          if (!session_abandoned && user.giveup_percent > 0 &&
              user.battery.percent() <=
                  static_cast<double>(user.giveup_percent)) {
            ++report.sessions_abandoned;
            session_abandoned = true;
            session_remaining = 0;  // the user stops watching
          }
        }
        const double level = user.battery.fraction();
        anxiety_minutes += anxiety(level);
        if (level <= 0.20) warning_minutes += 1.0;
      }
    }
  }

  const double user_days =
      static_cast<double>(config.users) * static_cast<double>(config.days);
  report.anxiety_minutes_per_day = anxiety_minutes / user_days;
  report.warning_zone_minutes_per_day = warning_minutes / user_days;
  report.mean_viewing_minutes_per_day = viewing_minutes / user_days;
  return report;
}

FleetDailyReport simulate_daily_life_fleet(const DailyLifeConfig& config,
                                           const FleetEdgeConfig& edge,
                                           const core::Scheduler& scheduler,
                                           const core::RunContext& context) {
  assert(config.users > 0 && config.days > 0 && edge.edge_servers > 0);
  common::Rng rng(config.seed);
  std::vector<UserState> users = build_users(config, rng);
  const std::size_t n_users = users.size();

  // Per-user day streams, forked in user order exactly once so the whole
  // simulation stays a function of config.seed regardless of how the
  // time-major loop below interleaves users.
  std::vector<common::Rng> day_rngs;
  day_rngs.reserve(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    day_rngs.push_back(rng.fork(5000 + static_cast<std::uint64_t>(u)));
  }

  core::BatchScheduler::Options batch_options;
  batch_options.threads = edge.threads;
  batch_options.warm_start = edge.warm_start;
  core::BatchScheduler batch(batch_options);

  FleetDailyReport report;
  double anxiety_minutes = 0.0;
  double warning_minutes = 0.0;
  double viewing_minutes = 0.0;

  struct MinuteState {
    std::size_t next_session = 0;
    int session_remaining = 0;
    bool abandoned = false;
    bool served = false;  ///< admitted at the last slot boundary
  };

  for (int day = 0; day < config.days; ++day) {
    std::vector<DayPlan> plans;
    plans.reserve(n_users);
    for (std::size_t u = 0; u < n_users; ++u) {
      users[u].battery = battery::Battery(users[u].battery.capacity(), 1.0);
      plans.push_back(plan_day(config, day_rngs[u]));
    }
    std::vector<MinuteState> states(n_users);

    for (int minute = 0; minute < kMinutesPerDay; ++minute) {
      // Per-user top-ups and session starts first, so the slot boundary
      // sees everyone who wants the coming window.
      for (std::size_t u = 0; u < n_users; ++u) {
        UserState& user = users[u];
        MinuteState& state = states[u];
        const DayPlan& plan = plans[u];
        if (minute == plan.topup_minute) {
          user.battery = battery::Battery(user.battery.capacity(), 1.0);
        }
        if (state.session_remaining == 0 &&
            state.next_session < plan.sessions.size() &&
            minute >= plan.sessions[state.next_session].first) {
          state.session_remaining = plan.sessions[state.next_session].second;
          ++state.next_session;
          ++report.life.sessions_started;
          state.abandoned = false;
          // Admission only changes at slot boundaries; a session starting
          // mid-slot plays untransformed until the next boundary.
          state.served = false;
        }
      }

      // Slot boundary: the whole fleet's admission is one batch solve,
      // sharded across edge servers, each warm-started from its own
      // previous slot (stream key = server index).
      if (config.lpvs_enabled && minute % kSlotMinutes == 0) {
        std::vector<core::BatchItem> items(
            static_cast<std::size_t>(edge.edge_servers));
        std::vector<std::vector<std::size_t>> members(
            static_cast<std::size_t>(edge.edge_servers));
        for (std::size_t s = 0; s < items.size(); ++s) {
          items[s].stream_key = static_cast<std::uint64_t>(s);
          items[s].problem.compute_capacity = edge.compute_capacity;
          items[s].problem.storage_capacity = edge.storage_capacity_mb;
          items[s].problem.lambda = edge.lambda;
        }
        for (std::size_t u = 0; u < n_users; ++u) {
          if (states[u].session_remaining <= 0) continue;
          const auto s = u % static_cast<std::size_t>(edge.edge_servers);
          const UserState& user = users[u];
          core::DeviceSlotInput device;
          device.id = common::DeviceId{static_cast<std::uint32_t>(u)};
          device.power_rates_mw.assign(kSlotMinutes, user.playback_mw);
          device.chunk_durations_s.assign(kSlotMinutes, 60.0);
          device.initial_energy_mwh = user.battery.remaining().value;
          device.battery_capacity_mwh = user.battery.capacity().value;
          device.gamma = user.gamma;
          device.compute_cost = user.compute_cost;
          device.storage_cost = user.storage_cost;
          items[s].problem.devices.push_back(std::move(device));
          members[s].push_back(u);
          ++report.requests;
        }
        bool any = false;
        for (const auto& item : items) any |= !item.problem.devices.empty();
        if (any) {
          ++report.slot_batches;
          const std::vector<core::Schedule> schedules =
              batch.schedule_batch(items, scheduler, context);
          for (std::size_t s = 0; s < schedules.size(); ++s) {
            for (std::size_t d = 0; d < members[s].size(); ++d) {
              const bool admit = d < schedules[s].x.size() &&
                                 schedules[s].x[d] != 0;
              states[members[s][d]].served = admit;
              if (admit) ++report.admissions;
            }
          }
        }
      }

      // Drain, abandonment, anxiety integration — as the coin-flip mode.
      for (std::size_t u = 0; u < n_users; ++u) {
        UserState& user = users[u];
        MinuteState& state = states[u];
        double draw_mw = config.idle_mw;
        if (state.session_remaining > 0 && !state.abandoned) {
          draw_mw = state.served ? (1.0 - user.gamma) * user.playback_mw
                                 : user.playback_mw;
          viewing_minutes += 1.0;
        }
        user.battery.drain(common::Milliwatts{draw_mw},
                           common::Seconds{60.0});
        if (state.session_remaining > 0) {
          --state.session_remaining;
          if (!state.abandoned && user.giveup_percent > 0 &&
              user.battery.percent() <=
                  static_cast<double>(user.giveup_percent)) {
            ++report.life.sessions_abandoned;
            state.abandoned = true;
            state.session_remaining = 0;
          }
        }
        const double level = user.battery.fraction();
        anxiety_minutes += context.anxiety_model()(level);
        if (level <= 0.20) warning_minutes += 1.0;
      }
    }
  }

  const double user_days =
      static_cast<double>(config.users) * static_cast<double>(config.days);
  report.life.anxiety_minutes_per_day = anxiety_minutes / user_days;
  report.life.warning_zone_minutes_per_day = warning_minutes / user_days;
  report.life.mean_viewing_minutes_per_day = viewing_minutes / user_days;
  report.cache = batch.cache().stats();
  return report;
}

}  // namespace lpvs::emu
