// The client playout buffer and throughput estimate, stepped per chunk by
// loadgen's clients, the reference streaming session and the ABR frontier
// bench: the source of the startup delay and freezing time and frequency
// that SVII-D says LPVS must not degrade.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

namespace lpvs::streaming {

/// What one chunk's download did to playback.
struct PlayoutStep {
  double startup_s = 0.0;   ///< download time spent before playback began
  double stalled_s = 0.0;   ///< playback frozen waiting for this chunk
  bool new_freeze = false;  ///< the stall began a new freezing episode
};

/// Until the buffer holds `startup_threshold_s` every download is startup
/// delay; then playback drains it while the next chunk downloads, and a
/// download longer than the buffer freezes playback for the difference.
/// Consecutive stalled chunks are one freezing episode.
class PlayoutBuffer {
 public:
  PlayoutBuffer() = default;
  PlayoutBuffer(double chunk_seconds, double capacity_s,
                double startup_threshold_s)
      : chunk_s_(chunk_seconds),
        capacity_s_(capacity_s),
        threshold_s_(startup_threshold_s) {}

  PlayoutStep step(double download_s) {
    PlayoutStep out;
    if (!playing_) {
      out.startup_s = download_s;
      level_s_ += chunk_s_;
      playing_ = level_s_ >= threshold_s_;
      return out;
    }
    if (level_s_ >= download_s) {
      level_s_ -= download_s;
    } else {
      out.stalled_s = download_s - level_s_;
      out.new_freeze = !was_starved_;
      level_s_ = 0.0;
    }
    was_starved_ = out.stalled_s > 0.0;
    level_s_ = std::min(level_s_ + chunk_s_, capacity_s_);
    return out;
  }

  double level_s() const { return level_s_; }
  bool playing() const { return playing_; }
  double chunk_seconds() const { return chunk_s_; }

 private:
  double chunk_s_ = 0.0, capacity_s_ = 0.0, threshold_s_ = 0.0;
  double level_s_ = 0.0;
  bool playing_ = false;
  bool was_starved_ = false;  ///< the previous chunk stalled
};

/// Harmonic mean of the last five download rates (robust to outliers, the
/// standard ABR estimate), summed oldest first; 0 before the first sample.
class ThroughputEstimator {
 public:
  static constexpr std::size_t kWindow = 5;

  void push(double mbps) {
    rates_[next_] = mbps;
    next_ = (next_ + 1) % kWindow;
    count_ = std::min(count_ + 1, kWindow);
  }

  double estimate() const {
    if (count_ == 0) return 0.0;
    double inv_sum = 0.0;
    for (std::size_t i = kWindow - count_; i < kWindow; ++i) {
      inv_sum += 1.0 / rates_[(next_ + i) % kWindow];
    }
    return static_cast<double>(count_) / inv_sum;
  }

 private:
  std::array<double, kWindow> rates_{};
  std::size_t next_ = 0;   ///< where the next sample goes
  std::size_t count_ = 0;  ///< samples held, at most kWindow
};

}  // namespace lpvs::streaming
