#include "lpvs/emu/emulator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <span>

#include "lpvs/core/signaling.hpp"
#include "lpvs/solver/solve_cache.hpp"

namespace lpvs::emu {
namespace {

/// Independent deterministic stream for a (seed, device, slot) triple.
/// All per-device-per-slot randomness (content, prefetch window, gamma
/// observation noise) comes from such streams so that paired runs with
/// different schedulers see byte-identical worlds even when devices drop
/// out at different times.
common::Rng derived_rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return common::Rng(seed ^ (a + 1) * 0x9E3779B97F4A7C15ULL ^
                     (b + 1) * 0xC2B2AE3D27D4EB4FULL);
}

constexpr double kBitrateLadder[] = {1.8, 2.5, 3.5, 5.0};

}  // namespace

double RunMetrics::mean_tpv(double max_start_fraction,
                            bool require_served) const {
  double sum = 0.0;
  long count = 0;
  for (std::size_t n = 0; n < tpv_minutes.size(); ++n) {
    if (start_fractions[n] > max_start_fraction) continue;
    if (require_served && !served[n]) continue;
    sum += tpv_minutes[n];
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

Emulator::Emulator(EmulatorConfig config, const core::Scheduler& scheduler,
                   core::RunContext context)
    : config_(config),
      scheduler_(scheduler),
      context_(context),
      rng_(config.seed) {
  assert(config_.group_size > 0);
  assert(config_.slots > 0);
  assert(config_.chunks_per_slot > 0);
  assert(context_.anxiety != nullptr);
}

void Emulator::setup_devices() {
  devices_.clear();
  devices_.reserve(static_cast<std::size_t>(config_.group_size));

  // Give-up thresholds come from the survey answer model so the emulated
  // audience behaves like the surveyed one (SVII-C).
  common::Rng setup_rng = derived_rng(config_.seed, 0xDEu, 0xADu);
  const survey::SyntheticPopulation population;
  const std::vector<survey::Participant> participants =
      population.generate(config_.group_size, setup_rng);

  const auto& catalog = display::DeviceCatalog::standard();
  for (int n = 0; n < config_.group_size; ++n) {
    common::Rng device_rng = derived_rng(config_.seed, 0xD0u,
                                         static_cast<std::uint64_t>(n));
    DeviceState device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(n)};
    const auto& profile = catalog.sample(device_rng);
    device.spec = profile.spec;
    device.start_fraction = device_rng.truncated_normal(
        config_.initial_battery_mean, config_.initial_battery_std, 0.05, 1.0);
    device.battery = battery::Battery(
        common::MilliwattHours{profile.battery_mwh * config_.effective_capacity_scale},
        device.start_fraction);
    device.giveup_percent =
        participants[static_cast<std::size_t>(n)].giveup_level;
    device.genre = static_cast<media::Genre>(
        device_rng.uniform_int(0, media::kGenreCount - 1));
    device.bitrate_mbps = kBitrateLadder[static_cast<std::size_t>(
        device_rng.uniform_int(0, std::ssize(kBitrateLadder) - 1))];
    devices_.push_back(std::move(device));
  }
}

media::Video Emulator::slot_video(const DeviceState& device, int slot) {
  // Content is a pure function of (seed, device, slot): paired runs see
  // identical chunks.
  common::Rng content_seed_rng =
      derived_rng(config_.seed, device.id.value,
                  static_cast<std::uint64_t>(slot));
  media::ContentGenerator generator(content_seed_rng());
  const auto vid = common::VideoId{static_cast<std::uint32_t>(
      device.id.value * 100000u + static_cast<std::uint32_t>(slot))};
  return generator.generate(vid, device.genre, config_.chunks_per_slot,
                            device.bitrate_mbps,
                            common::Seconds{config_.chunk_seconds});
}

RunMetrics Emulator::run() {
  setup_devices();

  const auto n_devices = static_cast<std::size_t>(config_.group_size);
  RunMetrics metrics;
  metrics.tpv_minutes.assign(n_devices, 0.0);
  metrics.start_fractions.assign(n_devices, 0.0);
  metrics.final_fractions.assign(n_devices, 0.0);
  metrics.served.assign(n_devices, 0);
  metrics.last_gamma_estimate.assign(n_devices, 0.0);
  metrics.mean_true_gamma.assign(n_devices, 0.0);
  for (std::size_t n = 0; n < n_devices; ++n) {
    metrics.start_fractions[n] = devices_[n].start_fraction;
  }

  streaming::CdnServer cdn;
  streaming::EdgeCache cache(/*capacity_mb=*/8.0 * 1024.0);
  const transform::ResourceModel resources;
  const survey::AnxietyModel& anxiety = context_.anxiety_model();

  // Observability handles, resolved once (names are looked up under the
  // registry mutex; the slot loop then writes lock-free).  All of this is
  // purely observational: RunMetrics is computed from the same variables
  // with or without a registry attached.
  obs::MetricsRegistry* registry = context_.metrics;
  obs::EventTrace* events = context_.events;
  obs::Counter* obs_giveups = nullptr;
  obs::Counter* obs_depleted = nullptr;
  obs::Counter* obs_bayes_updates = nullptr;
  obs::Counter* obs_slots = nullptr;
  obs::Gauge* obs_active = nullptr;
  obs::Gauge* obs_cache_used = nullptr;
  obs::Gauge* obs_cache_evictions = nullptr;
  obs::Histogram* obs_slot_energy = nullptr;
  obs::Histogram* obs_availability = nullptr;
  if (registry != nullptr) {
    obs_giveups = &registry->counter(
        "lpvs_emu_giveups_total",
        "Users who abandoned the stream at their give-up level");
    obs_depleted = &registry->counter("lpvs_emu_battery_depleted_total",
                                      "Devices that ran the battery empty");
    obs_bayes_updates = &registry->counter(
        "lpvs_emu_bayes_updates_total",
        "Per-slot gamma observations fed to the Bayesian estimators");
    obs_slots = &registry->counter("lpvs_emu_slots_total",
                                   "Emulated slots executed");
    obs_active = &registry->gauge("lpvs_emu_active_devices",
                                  "Devices still watching (last slot)");
    obs_cache_used = &registry->gauge("lpvs_edge_cache_used_mb",
                                      "Edge chunk cache occupancy, MB");
    obs_cache_evictions = &registry->gauge(
        "lpvs_edge_cache_evictions", "Cumulative edge cache evictions");
    obs_slot_energy = &registry->histogram(
        "lpvs_emu_slot_energy_mwh",
        obs::MetricsRegistry::linear_buckets(0.0, 50.0, 24),
        "Cluster-wide battery energy drained per slot, mWh");
    obs_availability = &registry->histogram(
        "lpvs_emu_chunk_availability",
        obs::MetricsRegistry::linear_buckets(0.0, 0.1, 11),
        "Fraction of a slot's chunks available at the edge per device");
  }

  // Fault layer (tentpole): with an active injector in the context, each
  // device's per-slot report exchange crosses a lossy signaling link (with
  // retry + accounted backoff), CDN-to-edge chunk deliveries can drop, and
  // the end-of-slot Bayes report can be lost or corrupted in transit.
  // Every decision is keyed on (device, slot), so a replay under the same
  // injector config is bit-identical; with a null or disabled injector
  // every fault branch below is skipped — including the signaling energy
  // drain, which is only modeled when the link is allowed to be lossy —
  // so RunMetrics match the fault-free pipeline bit for bit.
  const fault::FaultInjector* faults = context_.faults;
  const bool faults_active = context_.faults_active();
  const core::SignalingLink signaling{};
  obs::Counter* obs_signaling_retries = nullptr;
  obs::Counter* obs_signaling_failures = nullptr;
  obs::Counter* obs_bayes_lost = nullptr;
  if (registry != nullptr && faults_active) {
    obs_signaling_retries = &registry->counter(
        "lpvs_signaling_retries_total",
        "Report-exchange delivery retries under injected faults");
    obs_signaling_failures = &registry->counter(
        "lpvs_signaling_failures_total",
        "Report exchanges that failed after the whole retry budget");
    obs_bayes_lost = &registry->counter(
        "lpvs_emu_bayes_reports_lost_total",
        "Gamma observations lost to injected report faults");
  }

  // Warm-start plumbing: this cluster's slot solves form one problem
  // stream, so consecutive slots seed each other's ILP incumbents.  The
  // cache lives for the run; a caller-provided cache (e.g. a batch layer's)
  // takes precedence so cross-run reuse stays possible.
  solver::SolveCache run_cache;
  core::RunContext scheduling_context = context_;
  if (config_.warm_start && scheduling_context.solve_cache == nullptr) {
    scheduling_context =
        context_.with_solve_cache(&run_cache, /*key=*/config_.seed);
  }

  double anxiety_accumulator = 0.0;
  double scheduler_ms_total = 0.0;
  std::vector<long> true_gamma_samples(n_devices, 0);
  // One-slot-ahead mode: the decision executed in slot t was computed in
  // slot t-1.  Slot 0 bootstraps with conventional (untransformed)
  // streaming, exactly as a freshly attached scheduler would.
  std::vector<std::int8_t> pending_decision(n_devices, 0);

  // Slot-loop buffers, reused across slots so a slot allocates only its
  // fresh content.
  std::vector<std::size_t> active;
  // Each active device's slot video, owned by the CDN until the slot ends.
  std::vector<const media::Video*> videos;
  // Maps each active device to its row in problem.devices, or -1 when its
  // report exchange failed: the edge cannot schedule a device it never
  // heard from, so that device plays the slot untransformed while staying
  // in the playback loop.  Without faults this is the identity.
  std::vector<std::ptrdiff_t> problem_index;
  // Every chunk is priced once per slot: row i holds the playback power of
  // active[i]'s chunks, which feed the device's power_rates_mw, the true
  // gamma and the battery drain alike.
  const auto stride = static_cast<std::size_t>(config_.chunks_per_slot);
  std::vector<double> rates(n_devices * stride);
  core::SlotProblem problem;
  problem.compute_capacity = config_.compute_capacity;
  problem.storage_capacity = config_.storage_capacity_mb;
  problem.lambda = config_.lambda;
  // Remark-1 scratch: the played video after a mid-slot switch.
  media::Video switched;
  media::Video replacement;

  for (int slot = 0; slot < config_.slots; ++slot) {
    // --- (1) Information gathering ---------------------------------
    active.clear();
    videos.clear();
    problem_index.clear();
    std::size_t scheduled = 0;  // rows of problem.devices filled this slot
    long slot_chunks_available = 0;

    for (std::size_t n = 0; n < n_devices; ++n) {
      DeviceState& device = devices_[n];
      if (!device.watching || device.battery.empty()) continue;

      const media::Video& video = cdn.publish(slot_video(device, slot));
      assert(video.chunks.size() == stride);
      double* const video_rates = rates.data() + active.size() * stride;
      for (std::size_t k = 0; k < stride; ++k) {
        video_rates[k] = estimator_.rate(device.spec, video.chunks[k]).value;
      }
      common::Rng slot_rng = derived_rng(config_.seed ^ 0xF00Du,
                                         device.id.value,
                                         static_cast<std::uint64_t>(slot));
      const int window = static_cast<int>(slot_rng.uniform_int(
          config_.prefetch_window_min, config_.prefetch_window_max));
      streaming::Prefetcher(window).prefetch(cdn, cache, video.id, 0, faults,
                                             /*fault_key=*/device.id.value);
      const streaming::ChunkRequest request = streaming::available_request(
          cdn, cache, video.id, 0,
          static_cast<std::size_t>(config_.chunks_per_slot));
      slot_chunks_available += static_cast<long>(request.chunk_count());
      if (obs_availability != nullptr) {
        obs_availability->observe(
            static_cast<double>(request.chunk_count()) /
            static_cast<double>(config_.chunks_per_slot));
      }

      // Report exchange over the (lossy) signaling link.  The radio energy
      // of every attempt — retries included — comes out of the battery
      // before the report is priced, so the edge sees the post-exchange
      // energy status.
      bool report_delivered = true;
      if (faults_active) {
        const common::StatusOr<core::SignalingOutcome> exchange =
            signaling.exchange(faults, device.id.value,
                               static_cast<std::uint64_t>(slot),
                               request.chunk_count());
        double signaling_mwh = 0.0;
        if (exchange.ok()) {
          const core::SignalingOutcome& outcome = exchange.value();
          signaling_mwh = outcome.energy.value;
          if (outcome.retries() > 0) {
            if (obs_signaling_retries != nullptr) {
              obs_signaling_retries->add(outcome.retries());
            }
            if (events != nullptr) {
              events->record({obs::EventKind::kRetry, slot,
                              static_cast<int>(device.id.value),
                              {{"attempts", static_cast<double>(
                                                outcome.uplink_attempts +
                                                outcome.downlink_attempts)},
                               {"backoff_ms", outcome.backoff_ms}}});
            }
          }
        } else {
          report_delivered = false;
          // The whole retry budget was burned before giving up; charge the
          // clean per-attempt cost for each attempt.
          signaling_mwh =
              core::SignalingCostModel{}
                  .report_energy(signaling.schema(), request.chunk_count())
                  .value *
              signaling.backoff().max_attempts;
          if (obs_signaling_failures != nullptr) {
            obs_signaling_failures->add(1);
          }
          if (events != nullptr) {
            events->record(
                {obs::EventKind::kFaultInjected, slot,
                 static_cast<int>(device.id.value),
                 {{"site", static_cast<double>(static_cast<int>(
                               fault::FaultSite::kSignalingUplink))}}});
          }
        }
        metrics.total_energy_mwh +=
            device.battery
                .drain_energy(common::MilliwattHours{signaling_mwh})
                .value;
      }
      if (!report_delivered) {
        problem_index.push_back(-1);
        active.push_back(n);
        videos.push_back(&video);
        continue;
      }

      // A reused row: every field is assigned below.
      if (scheduled == problem.devices.size()) problem.devices.emplace_back();
      core::DeviceSlotInput& input = problem.devices[scheduled];
      input.id = device.id;
      // Price only the chunks available at the edge (Fig. 4): the paper
      // estimates power rates over the available window.
      const std::size_t known =
          std::min(std::max<std::size_t>(request.chunk_count(), 1), stride);
      input.power_rates_mw.assign(video_rates, video_rates + known);
      input.chunk_durations_s.clear();
      for (std::size_t k = 0; k < known; ++k) {
        input.chunk_durations_s.push_back(video.chunks[k].duration.value);
      }
      input.initial_energy_mwh = device.battery.remaining().value;
      input.battery_capacity_mwh = device.battery.capacity().value;
      if (config_.one_slot_ahead) {
        // The schedule we compute now executes next slot; predict the
        // battery at that boundary: current energy minus the expected
        // spend of the in-flight slot under the pending decision.
        const double gamma_estimate =
            device.estimator.expected_gamma();  // best current knowledge
        double spend_mwh = 0.0;
        for (std::size_t k = 0; k < input.power_rates_mw.size(); ++k) {
          const double psi =
              pending_decision[device.id.value]
                  ? (1.0 - gamma_estimate) * input.power_rates_mw[k]
                  : input.power_rates_mw[k];
          spend_mwh += psi * input.chunk_durations_s[k] / 3600.0;
        }
        input.initial_energy_mwh =
            std::max(input.initial_energy_mwh - spend_mwh, 0.0);
      }
      switch (config_.gamma_mode) {
        case GammaMode::kBayesian:
          input.gamma = device.estimator.expected_gamma();
          break;
        case GammaMode::kNigBayesian:
          input.gamma = device.nig_estimator.expected_gamma();
          break;
        case GammaMode::kFixedPrior:
          input.gamma = device.estimator.prior().mean;
          break;
        case GammaMode::kOracle:
          input.gamma = engine_.video_gamma(
              device.spec, video, std::span<const double>(video_rates, stride));
          break;
      }
      input.compute_cost = resources.compute_cost(device.spec, video);
      input.storage_cost = resources.storage_cost(video);
      input.sla_weight = 1.0;  // standard tier

      problem_index.push_back(static_cast<std::ptrdiff_t>(scheduled++));
      active.push_back(n);
      videos.push_back(&video);
    }
    problem.devices.resize(scheduled);

    if (active.empty()) break;

    // --- (2) Request scheduling ------------------------------------
    const auto t0 = std::chrono::steady_clock::now();
    const core::Schedule schedule =
        scheduler_.schedule(problem, scheduling_context.with_slot(slot));
    const auto t1 = std::chrono::steady_clock::now();
    scheduler_ms_total +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ++metrics.slots_run;
    if (obs_slots != nullptr) {
      obs_slots->add(1);
      obs_active->set(static_cast<double>(active.size()));
      obs_cache_used->set(cache.used_mb());
      obs_cache_evictions->set(static_cast<double>(cache.evictions()));
    }
    if (events != nullptr) {
      events->record(
          {obs::EventKind::kCacheAccess, slot, /*device=*/-1,
           {{"chunks_available", static_cast<double>(slot_chunks_available)},
            {"chunks_requested",
             static_cast<double>(active.size()) *
                 static_cast<double>(config_.chunks_per_slot)},
            {"cache_used_mb", cache.used_mb()},
            {"evictions", static_cast<double>(cache.evictions())}}});
    }
    double slot_energy_mwh = 0.0;

    // --- (3) Transforming & playback -------------------------------
    for (std::size_t i = 0; i < active.size(); ++i) {
      DeviceState& device = devices_[active[i]];
      const media::Video* video = videos[i];
      double* const video_rates = rates.data() + i * stride;
      // One-slot-ahead: execute last slot's decision; record this slot's
      // for the next.  Otherwise execute immediately.  A device whose
      // report never reached the edge (problem_index -1) was not in the
      // problem and plays untransformed.
      const std::ptrdiff_t pi = problem_index[i];
      bool selected =
          pi >= 0 && schedule.x[static_cast<std::size_t>(pi)] != 0;
      if (config_.one_slot_ahead) {
        const bool execute_now = pending_decision[device.id.value] != 0;
        pending_decision[device.id.value] = static_cast<std::int8_t>(
            pi >= 0 ? schedule.x[static_cast<std::size_t>(pi)] : 0);
        selected = execute_now;
      }

      // Remark 1: the user may switch videos mid-slot; LPVS keeps the
      // decision for this user until the next scheduling point, so the
      // transform applies to content the scheduler never priced.
      if (config_.switch_probability > 0.0) {
        common::Rng switch_rng = derived_rng(
            config_.seed ^ 0x5717C4u, device.id.value,
            static_cast<std::uint64_t>(slot));
        if (switch_rng.bernoulli(config_.switch_probability) &&
            video->chunks.size() > 1) {
          const auto cut = static_cast<std::size_t>(switch_rng.uniform_int(
              1, static_cast<std::int64_t>(video->chunks.size()) - 1));
          const auto new_genre = static_cast<media::Genre>(
              switch_rng.uniform_int(0, media::kGenreCount - 1));
          media::ContentGenerator other(switch_rng());
          other.generate_into(replacement,
                              common::VideoId{video->id.value + 50000u},
                              new_genre,
                              static_cast<int>(video->chunks.size() - cut),
                              device.bitrate_mbps,
                              common::Seconds{config_.chunk_seconds});
          // Only the switch path copies the video, and only the switched
          // chunks are priced again.
          switched = *video;
          for (std::size_t k = cut; k < switched.chunks.size(); ++k) {
            switched.chunks[k] = replacement.chunks[k - cut];
            switched.chunks[k].id =
                common::ChunkId{static_cast<std::uint32_t>(k)};
            video_rates[k] =
                estimator_.rate(device.spec, switched.chunks[k]).value;
          }
          video = &switched;
        }
      }

      const double true_gamma = engine_.video_gamma(
          device.spec, *video, std::span<const double>(video_rates, stride));
      metrics.mean_true_gamma[active[i]] += true_gamma;
      ++true_gamma_samples[active[i]];
      if (selected) {
        device.ever_served = true;
        ++device.slots_served;
        ++metrics.total_selected;
        metrics.served[active[i]] = 1;
      }

      for (std::size_t k = 0; k < video->chunks.size(); ++k) {
        const media::VideoChunk& chunk = video->chunks[k];
        const double rate = video_rates[k];
        const double psi = selected ? (1.0 - true_gamma) * rate : rate;
        anxiety_accumulator += anxiety(device.battery.fraction());
        ++metrics.anxiety_samples;
        const common::MilliwattHours drawn = device.battery.drain(
            common::Milliwatts{psi}, chunk.duration);
        metrics.total_energy_mwh += drawn.value;
        slot_energy_mwh += drawn.value;
        device.watch_minutes += chunk.duration.value / 60.0;
        if (device.battery.empty()) {
          device.watching = false;
          if (obs_depleted != nullptr) obs_depleted->add(1);
          break;
        }
        if (config_.enable_giveup && device.giveup_percent > 0 &&
            device.battery.percent() <=
                static_cast<double>(device.giveup_percent)) {
          device.watching = false;  // the user gives up on the video
          if (obs_giveups != nullptr) obs_giveups->add(1);
          if (events != nullptr) {
            events->record(
                {obs::EventKind::kGiveUp, slot,
                 static_cast<int>(device.id.value),
                 {{"battery_percent", device.battery.percent()},
                  {"watch_minutes", device.watch_minutes}}});
          }
          break;
        }
      }

      // End-of-slot gamma observation (SV-D): the realized per-slot power
      // reduction, noisy because measurement happens on a live device.
      if (selected) {
        common::Rng noise_rng = derived_rng(config_.seed ^ 0xBA1Eu,
                                            device.id.value,
                                            static_cast<std::uint64_t>(slot));
        double observed =
            true_gamma + noise_rng.normal(0.0, config_.observation_noise);
        // The observation travels the same lossy path as the report: an
        // injected drop loses it (the posterior simply doesn't move), a
        // corruption garbles the accepted measurement.
        bool observation_delivered = true;
        if (faults_active) {
          const fault::FaultDecision decision =
              faults->decide(fault::FaultSite::kBayesReport, device.id.value,
                             static_cast<std::uint64_t>(slot));
          if (decision.dropped()) {
            observation_delivered = false;
            if (obs_bayes_lost != nullptr) obs_bayes_lost->add(1);
            if (events != nullptr) {
              events->record(
                  {obs::EventKind::kFaultInjected, slot,
                   static_cast<int>(device.id.value),
                   {{"site", static_cast<double>(static_cast<int>(
                                 fault::FaultSite::kBayesReport))}}});
            }
          } else if (decision.corrupted()) {
            observed += decision.corrupt_factor;
          }
        }
        if (!observation_delivered) continue;
        device.estimator.observe(observed);
        device.nig_estimator.observe(observed);
        if (obs_bayes_updates != nullptr) obs_bayes_updates->add(1);
        if (events != nullptr) {
          events->record({obs::EventKind::kBayesUpdate, slot,
                          static_cast<int>(device.id.value),
                          {{"observed_gamma", observed},
                           {"posterior_mean",
                            device.estimator.expected_gamma()}}});
        }
      }
    }

    // The catalog holds one slot of videos.
    for (const media::Video* video : videos) cdn.retire(video->id);

    if (obs_slot_energy != nullptr) obs_slot_energy->observe(slot_energy_mwh);
    if (events != nullptr) {
      events->record({obs::EventKind::kBatteryDrain, slot, /*device=*/-1,
                      {{"energy_mwh", slot_energy_mwh},
                       {"active_devices",
                        static_cast<double>(active.size())}}});
    }
  }

  for (std::size_t n = 0; n < n_devices; ++n) {
    metrics.tpv_minutes[n] = devices_[n].watch_minutes;
    metrics.final_fractions[n] = devices_[n].battery.fraction();
    metrics.last_gamma_estimate[n] = devices_[n].estimator.expected_gamma();
    if (true_gamma_samples[n] > 0) {
      metrics.mean_true_gamma[n] /=
          static_cast<double>(true_gamma_samples[n]);
    }
  }
  metrics.mean_anxiety =
      metrics.anxiety_samples > 0
          ? anxiety_accumulator / static_cast<double>(metrics.anxiety_samples)
          : 0.0;
  metrics.mean_scheduler_ms =
      metrics.slots_run > 0
          ? scheduler_ms_total / static_cast<double>(metrics.slots_run)
          : 0.0;
  return metrics;
}

double PairedMetrics::energy_saving_ratio() const {
  return without_lpvs.total_energy_mwh > 0.0
             ? (without_lpvs.total_energy_mwh - with_lpvs.total_energy_mwh) /
                   without_lpvs.total_energy_mwh
             : 0.0;
}

double PairedMetrics::anxiety_reduction_ratio() const {
  return without_lpvs.mean_anxiety > 0.0
             ? (without_lpvs.mean_anxiety - with_lpvs.mean_anxiety) /
                   without_lpvs.mean_anxiety
             : 0.0;
}

PairedMetrics run_paired(const EmulatorConfig& config,
                         const core::Scheduler& scheduler,
                         const core::RunContext& context) {
  PairedMetrics paired;
  Emulator with(config, scheduler, context);
  paired.with_lpvs = with.run();
  // The baseline leg runs un-observed: its no-op schedules would only
  // dilute the metrics of the leg being studied.
  const core::NoTransformScheduler baseline;
  Emulator without(config, baseline, core::RunContext(context.anxiety_model()));
  paired.without_lpvs = without.run();
  return paired;
}

}  // namespace lpvs::emu
