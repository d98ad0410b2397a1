// Trace-driven multi-cluster replay (reproduction extension).
//
// The paper evaluates LPVS per virtual cluster; a deployment serves many
// base stations at once.  CityReplay walks the synthetic Twitch trace,
// forms one virtual cluster per sufficiently-viewed live session at a
// chosen slot (each with its own edge server, as in SIV-A), runs the
// paired with/without-LPVS emulation for every cluster, and aggregates the
// city-wide outcome — energy saved, anxiety reduced, low-battery watch
// time gained, and scheduler cost.
#pragma once

#include <vector>

#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/emu/cluster_params.hpp"
#include "lpvs/emu/emulator.hpp"
#include "lpvs/survey/lba_curve.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs::emu {

/// Cluster-shared knobs (capacities, lambda, give-up, group-size cap,
/// seed) live in the ClusterParams base, shared with EmulatorConfig; the
/// replay forwards its whole ClusterParams slice into every per-cluster
/// emulation, so the two run kinds cannot drift apart.
struct ReplayConfig : ClusterParams {
  ReplayConfig() { seed = 1; }

  /// Slot of the trace at which clusters are formed.
  int start_slot = 144;  // midday of a 288-slot day
  /// Only sessions with at least this many viewers form a cluster.
  int min_viewers = 30;
  /// Cap on clusters replayed (largest sessions first); 0 = no cap.
  int max_clusters = 16;
  /// Per-cluster emulation horizon cap, slots (bounded by session end).
  int max_slots = 24;
  /// Threads for the per-cluster emulations, the calling thread included
  /// (clusters are independent and seeded per session, so any thread count
  /// produces bit-identical reports); 0 = hardware concurrency.
  unsigned threads = 1;
};

/// One cluster's paired outcome.
struct ClusterOutcome {
  common::ChannelId channel;
  common::SessionId session;
  int group_size = 0;
  int slots = 0;
  PairedMetrics metrics;
};

/// City-wide aggregate.
struct ReplayReport {
  std::vector<ClusterOutcome> clusters;
  double energy_with_mwh = 0.0;
  double energy_without_mwh = 0.0;
  long total_devices = 0;
  long total_served_slots = 0;
  double mean_scheduler_ms = 0.0;

  double energy_saving_ratio() const {
    return energy_without_mwh > 0.0
               ? (energy_without_mwh - energy_with_mwh) / energy_without_mwh
               : 0.0;
  }
  /// Viewer-weighted mean anxiety reduction across clusters.
  double anxiety_reduction_ratio() const;
  /// Mean low-battery TPV across clusters (served users, <= 40% start).
  double mean_low_battery_tpv(bool with_lpvs) const;
};

/// Runs the replay.  Deterministic in (trace, config.seed) — with or
/// without observability sinks in the context, and at any thread count.
/// With a registry attached, per-cluster wall times land in the
/// lpvs_replay_cluster_ms histogram (aggregated across the ThreadPool).
ReplayReport replay_city(const trace::Trace& trace,
                         const core::Scheduler& scheduler,
                         const core::RunContext& context,
                         const ReplayConfig& config);

}  // namespace lpvs::emu
