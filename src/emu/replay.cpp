#include "lpvs/emu/replay.hpp"

#include <algorithm>
#include <cassert>

#include "lpvs/common/thread_pool.hpp"

namespace lpvs::emu {

double ReplayReport::anxiety_reduction_ratio() const {
  double weighted = 0.0;
  double weight = 0.0;
  for (const ClusterOutcome& cluster : clusters) {
    const double w = static_cast<double>(cluster.group_size);
    weighted += w * cluster.metrics.anxiety_reduction_ratio();
    weight += w;
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

double ReplayReport::mean_low_battery_tpv(bool with_lpvs) const {
  double total = 0.0;
  int counted = 0;
  for (const ClusterOutcome& cluster : clusters) {
    const double tpv =
        with_lpvs
            ? cluster.metrics.with_lpvs.mean_tpv(0.4, /*require_served=*/true)
            : cluster.metrics.without_lpvs.mean_tpv(0.4, false);
    if (tpv > 0.0) {
      total += tpv;
      ++counted;
    }
  }
  return counted > 0 ? total / counted : 0.0;
}

ReplayReport replay_city(const trace::Trace& trace,
                         const core::Scheduler& scheduler,
                         const core::RunContext& context,
                         const ReplayConfig& config) {
  ReplayReport report;

  // Per-cluster wall times; the registry is thread-safe, so worker threads
  // record concurrently without perturbing the (seed-determined) results.
  obs::Histogram* cluster_ms_hist = nullptr;
  if (context.metrics != nullptr) {
    cluster_ms_hist = &context.metrics->histogram(
        "lpvs_replay_cluster_ms", obs::MetricsRegistry::time_buckets_ms(),
        "Wall-clock time of one cluster's paired emulation");
  }

  // Candidate clusters: live sessions with enough audience, biggest first.
  std::vector<const trace::Session*> candidates;
  for (const trace::Session* session :
       trace.live_sessions(config.start_slot)) {
    if (session->viewers_at(config.start_slot) >= config.min_viewers) {
      candidates.push_back(session);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const trace::Session* a, const trace::Session* b) {
              return a->viewers_at(config.start_slot) >
                     b->viewers_at(config.start_slot);
            });
  if (config.max_clusters > 0 &&
      candidates.size() > static_cast<std::size_t>(config.max_clusters)) {
    candidates.resize(static_cast<std::size_t>(config.max_clusters));
  }

  // Per-cluster emulations are independent and individually seeded, so
  // they can run on any number of threads with bit-identical results;
  // outcomes land in pre-assigned slots to keep ordering deterministic.
  std::vector<ClusterOutcome> outcomes(candidates.size());
  auto run_one = [&](std::size_t i) {
    const obs::ScopedTimer timer(cluster_ms_hist);
    const trace::Session* session = candidates[i];
    ClusterOutcome outcome;
    outcome.channel = session->channel;
    outcome.session = session->id;
    outcome.group_size = std::min(session->viewers_at(config.start_slot),
                                  config.max_group_size);
    outcome.slots = std::clamp(session->end_slot() - config.start_slot, 1,
                               config.max_slots);

    EmulatorConfig emu_config;
    // Forward the whole shared-knob slice in one go (the point of
    // ClusterParams: a knob added there flows through automatically)...
    static_cast<ClusterParams&>(emu_config) = config;
    // ...then the per-cluster specifics on top.
    emu_config.group_size = outcome.group_size;
    emu_config.slots = outcome.slots;
    emu_config.seed =
        config.seed ^ (static_cast<std::uint64_t>(session->id.value) << 20);
    outcome.metrics = run_paired(emu_config, scheduler, context);
    outcomes[i] = std::move(outcome);
  };

  const std::unique_ptr<common::ThreadPool> pool =
      candidates.size() > 1 ? common::helper_pool(config.threads) : nullptr;
  if (pool == nullptr) {
    for (std::size_t i = 0; i < candidates.size(); ++i) run_one(i);
  } else {
    common::parallel_for(*pool, candidates.size(), run_one);
  }

  double scheduler_ms = 0.0;
  for (ClusterOutcome& outcome : outcomes) {
    report.energy_with_mwh += outcome.metrics.with_lpvs.total_energy_mwh;
    report.energy_without_mwh +=
        outcome.metrics.without_lpvs.total_energy_mwh;
    report.total_devices += outcome.group_size;
    report.total_served_slots += outcome.metrics.with_lpvs.total_selected;
    scheduler_ms += outcome.metrics.with_lpvs.mean_scheduler_ms;
    report.clusters.push_back(std::move(outcome));
  }
  report.mean_scheduler_ms =
      outcomes.empty() ? 0.0
                       : scheduler_ms / static_cast<double>(outcomes.size());
  if (context.metrics != nullptr) {
    context.metrics
        ->counter("lpvs_replay_clusters_total", "Virtual clusters replayed")
        .add(static_cast<long>(report.clusters.size()));
    context.metrics
        ->gauge("lpvs_replay_total_devices",
                "Devices across all clusters of the last replay")
        .set(static_cast<double>(report.total_devices));
  }
  return report;
}

}  // namespace lpvs::emu
