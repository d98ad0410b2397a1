// Client-side adaptive-bitrate streaming session (library
// lpvs_reference_models; no src library links it).
//
// Models what happens on the phone between the edge and the screen: the
// shared playout buffer and throughput estimate (playout.hpp), chunk
// downloads over the stochastic last hop (network.hpp), an ABR controller
// choosing the ladder rung, and the QoE accounting (startup delay,
// rebuffering time/frequency, bitrate, switches) that SVII-D says LPVS
// must not degrade.  The session can inject a per-slot "scheduling stall"
// — the delay a *naive inline* scheduler would add at every scheduling
// point — so the one-slot-ahead design's QoE neutrality can be
// demonstrated quantitatively (bench_qoe_overhead).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/streaming/network.hpp"
#include "lpvs/streaming/playout.hpp"

namespace lpvs::streaming {

/// Per-session quality-of-experience record.
struct SessionQoe {
  double startup_delay_s = 0.0;
  double rebuffer_time_s = 0.0;   ///< total video freezing time
  int rebuffer_events = 0;        ///< freezing frequency
  double mean_bitrate_mbps = 0.0;
  int bitrate_switches = 0;
  int chunks_played = 0;

  /// Standard linear QoE: bitrate reward minus rebuffering and switching
  /// penalties (the common MPC/Pensieve-style objective).
  ///
  /// Normalization: the rebuffer term is the *freeze percentage* — stalled
  /// time as a share of nominal playback time (chunks * chunk_seconds),
  /// scaled by 100 so a session frozen 1% of the time loses
  /// `rebuffer_penalty` points.  That keeps the term comparable to the
  /// bitrate reward (single-digit Mbps) and independent of session length.
  /// The switch term is switches per chunk, as in the MPC objective.
  double score(double rebuffer_penalty = 4.3, double switch_penalty = 0.5,
               double chunk_seconds = 10.0) const {
    const double chunks = static_cast<double>(std::max(chunks_played, 1));
    const double freeze_percent =
        100.0 * rebuffer_time_s / (chunks * chunk_seconds);
    return mean_bitrate_mbps - rebuffer_penalty * freeze_percent -
           switch_penalty * bitrate_switches / chunks;
  }
};

/// ABR policy interface: choose a ladder rung for the next chunk.
class AbrController {
 public:
  virtual ~AbrController() = default;
  virtual std::string name() const = 0;
  /// `ladder` ascending bitrates; returns an index into it.
  virtual std::size_t pick_rung(std::span<const double> ladder,
                                double buffer_s,
                                double throughput_estimate_mbps) = 0;
};

/// Rate-based: highest rung under a safety factor of the estimated
/// throughput (harmonic mean of recent downloads).
class RateBasedAbr : public AbrController {
 public:
  explicit RateBasedAbr(double safety = 0.85) : safety_(safety) {}
  std::string name() const override { return "rate-based"; }
  std::size_t pick_rung(std::span<const double> ladder, double buffer_s,
                        double throughput_estimate_mbps) override;

 private:
  double safety_;
};

/// Buffer-based (BBA-style): rung is a linear function of buffer level
/// between a reservoir and a cushion, ignoring throughput except at start.
class BufferBasedAbr : public AbrController {
 public:
  BufferBasedAbr(double reservoir_s = 8.0, double cushion_s = 40.0)
      : reservoir_s_(reservoir_s), cushion_s_(cushion_s) {}
  std::string name() const override { return "buffer-based"; }
  std::size_t pick_rung(std::span<const double> ladder, double buffer_s,
                        double throughput_estimate_mbps) override;

 private:
  double reservoir_s_;
  double cushion_s_;
};

/// BOLA (Spiteri, Urgaonkar & Sitaraman): Lyapunov-drift-plus-penalty rung
/// choice from the buffer level alone.  Each decision maximizes
///
///   (V * (v_m + gp) - Q) / S_m
///
/// over rungs m, where v_m = ln(r_m / r_0) is the rung's log utility,
/// S_m = r_m * chunk_seconds its size, Q the buffer level in chunks, and
/// V = (buffer_capacity/chunk_seconds - 1) / (v_max + gp) the control gain
/// that keeps the chosen rung's buffer target inside the playout buffer.
/// Ties go to the lowest rung (the conservative choice).  Throughput
/// estimates are ignored — BOLA is the buffer-only corner of the policy
/// menu, provably near-optimal for the utility it maximizes.
class BolaAbr : public AbrController {
 public:
  explicit BolaAbr(double gp = 5.0, double chunk_seconds = 10.0,
                   double buffer_capacity_s = 60.0)
      : gp_(gp),
        chunk_seconds_(chunk_seconds),
        buffer_capacity_s_(buffer_capacity_s) {}
  std::string name() const override { return "bola"; }
  std::size_t pick_rung(std::span<const double> ladder, double buffer_s,
                        double throughput_estimate_mbps) override;

 private:
  double gp_;
  double chunk_seconds_;
  double buffer_capacity_s_;
};

/// One viewer's streaming session simulation.
class StreamingSession {
 public:
  struct Config {
    std::vector<double> ladder_mbps = {1.0, 1.8, 2.5, 3.5, 5.0};
    double chunk_seconds = 10.0;
    int chunk_count = 180;          ///< 30 minutes
    double buffer_capacity_s = 60.0;
    double startup_threshold_s = 10.0;  ///< buffer needed to start playing
    /// Extra delivery stall injected every `stall_period_chunks` chunks —
    /// models a scheduler that blocks the pipeline at scheduling points
    /// (0 = the paper's one-slot-ahead design).
    double scheduling_stall_s = 0.0;
    int stall_period_chunks = 30;   ///< one 5-minute slot of 10 s chunks
  };

  StreamingSession() : StreamingSession(Config{}) {}
  explicit StreamingSession(Config config);

  /// Runs the whole session; deterministic in (rng state, model state).
  /// With an injector, each chunk download samples the link under
  /// kNetworkLink faults keyed (fault_key, chunk index); a null or
  /// disabled injector leaves the session bit-identical to the plain run.
  SessionQoe run(ThroughputModel& network, AbrController& abr,
                 common::Rng& rng,
                 const fault::FaultInjector* faults = nullptr,
                 std::uint64_t fault_key = 0) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace lpvs::streaming
