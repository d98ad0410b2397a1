// The LPVS emulator (SVI-B): wires every substrate together and replays the
// paper's experiment loop.
//
// Per slot (5 minutes): (1) information gathering — each still-watching
// device's next chunks are generated, prefetched from the CDN into the edge
// cache, and priced with the display power models; (2) request scheduling —
// the pluggable scheduler (LPVS two-phase or a baseline) picks the
// transform subset under the edge capacity; (3) video transforming &
// playback — selected streams play at their device's *true* physics-derived
// gamma, batteries drain, anxiety is accumulated, users give up when their
// battery hits their personal give-up level (from the survey), and each
// device's Bayesian gamma estimate is updated with the slot's observed
// power reduction.
//
// Determinism: the entire run is a function of EmulatorConfig::seed, so a
// paired run with a different scheduler but the same seed sees the same
// devices, batteries, and content — the paper's with/without-LPVS
// comparisons are computed from such pairs.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lpvs/battery/battery.hpp"
#include "lpvs/bayes/gamma_estimator.hpp"
#include "lpvs/bayes/nig_estimator.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/emu/cluster_params.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/streaming/streaming.hpp"
#include "lpvs/survey/lba_curve.hpp"
#include "lpvs/survey/population.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::emu {

/// How the scheduler learns gamma_n (the SV-D ablation axis).
enum class GammaMode {
  kBayesian,     ///< paper: conjugate updates from per-slot observations
  kNigBayesian,  ///< extension: Normal-Inverse-Gamma (noise also learned)
  kFixedPrior,   ///< never update; always use the Table I prior mean
  kOracle,       ///< cheat: use the slot's true physics-derived gamma
};

/// Cluster-shared knobs (compute/storage capacity, lambda, chunk shape,
/// give-up, seed) live in the ClusterParams base (itself built on
/// core::SlotProblemConfig), shared with ReplayConfig so the two can no
/// longer drift apart.
struct EmulatorConfig : ClusterParams {
  int group_size = 100;             ///< N devices in the virtual cluster
  int slots = 36;                   ///< 3 hours of 5-minute slots
  /// Initial energy status ~ Gaussian (SVI-B), truncated to [0.05, 1].
  double initial_battery_mean = 0.5;
  double initial_battery_std = 0.2;
  /// Edge prefetch window in chunks; windows shorter than a slot create the
  /// partial-availability situation of Fig. 4.
  int prefetch_window_min = 18;
  int prefetch_window_max = 30;
  /// SVI-B "one-slot-ahead" working mode: the decision executed in slot t
  /// was computed during slot t-1 from *predicted* battery states (initial
  /// energy minus the expected consumption of the in-flight slot).  When
  /// false, decisions use the exact state at the slot boundary — an
  /// idealized scheduler with zero solve time.
  bool one_slot_ahead = false;
  GammaMode gamma_mode = GammaMode::kBayesian;
  /// Remark 1: probability that a user switches videos mid-slot.  The
  /// scheduling decision persists until the next scheduling point, so the
  /// slot is played partly on content the scheduler never priced — a
  /// realistic source of gamma-estimation error.
  double switch_probability = 0.0;
  /// Noise on the per-slot observed power reduction fed to Bayes.
  double observation_noise = 0.02;
};

/// One emulated viewer and phone.
struct DeviceState {
  common::DeviceId id;
  display::DisplaySpec spec;
  battery::Battery battery;
  double start_fraction = 0.5;
  int giveup_percent = 10;       ///< from the survey answers
  media::Genre genre = media::Genre::kIrlChat;
  double bitrate_mbps = 3.0;
  bayes::GammaEstimator estimator;
  bayes::NigGammaEstimator nig_estimator;
  bool watching = true;
  double watch_minutes = 0.0;
};

/// Everything a run reports; the benches turn these into the paper's rows.
struct RunMetrics {
  double total_energy_mwh = 0.0;
  /// Mean anxiety degree over all (device, chunk) samples while watching.
  double mean_anxiety = 0.0;
  /// Mean scheduler wall time per slot, milliseconds.
  double mean_scheduler_ms = 0.0;
  long total_selected = 0;
  int slots_run = 0;
  long anxiety_samples = 0;

  // Per-device outcome rows (index = device id).
  std::vector<double> tpv_minutes;
  std::vector<double> start_fractions;
  std::vector<double> final_fractions;
  std::vector<std::uint8_t> served;
  std::vector<double> last_gamma_estimate;
  std::vector<double> mean_true_gamma;

  /// Mean watch time of devices matching a predicate; the Fig. 9 metric.
  double mean_tpv(double max_start_fraction, bool require_served) const;
};

/// The emulator.  Construct once, `run()` replays the whole scenario.
///
/// The RunContext carries the anxiety model plus optional observability
/// sinks; with sinks attached the run additionally reports per-slot
/// energy/anxiety/give-up metrics and structured events, without changing
/// RunMetrics (tests assert bit-identical results on/off).
class Emulator {
 public:
  Emulator(EmulatorConfig config, const core::Scheduler& scheduler,
           core::RunContext context);

  RunMetrics run();

  /// The device states after run() (for inspection in tests/examples).
  const std::vector<DeviceState>& devices() const { return devices_; }
  const EmulatorConfig& config() const { return config_; }

 private:
  void setup_devices();

  EmulatorConfig config_;
  const core::Scheduler& scheduler_;
  core::RunContext context_;
  std::vector<DeviceState> devices_;
  transform::TransformEngine engine_;
};

/// Convenience: run the same config with LPVS and with the no-transform
/// baseline (same seed, same world) and report both.
struct PairedMetrics {
  RunMetrics with_lpvs;
  RunMetrics without_lpvs;

  double energy_saving_ratio() const;
  double anxiety_reduction_ratio() const;
};
PairedMetrics run_paired(const EmulatorConfig& config,
                         const core::Scheduler& scheduler,
                         const core::RunContext& context);

}  // namespace lpvs::emu
