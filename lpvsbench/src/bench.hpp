// Shared plumbing of the LPVS benchmark: options, the per-workload result
// every workload fills in, seed derivation, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lpvs/common/wire.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvsbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload hands back to main: end-to-end metrics (untraced
/// runs) or per-layer metrics (traced runs) by name, the operation counts,
/// the determinism digest and the run metadata it alone knows.
struct WorkloadResult {
  std::map<std::string, double> metrics;
  long attempted = 0;
  long failed = 0;
  /// False when an output check failed (a violation, an unclean drain, or
  /// a determinism replay that did not reproduce its digest).
  bool correct = true;
  std::uint64_t digest = 0;
  std::map<std::string, std::string> meta;
};

/// Independent streams from one seed: a SplitMix64 finalizer over
/// (seed, a, b).  Every input of every workload comes from here.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                 std::uint64_t b = 0) {
  std::uint64_t z = seed ^ (a + 1) * 0x9E3779B97F4A7C15ULL ^
                    (b + 1) * 0xC2B2AE3D27D4EB4FULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Folds one 64-bit value into a running FNV-1a digest.
inline std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return lpvs::common::wire::fnv1a(digest, bytes, sizeof(bytes));
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Upper bounds of 1%-wide log buckets from `lo` up to `hi`: quantiles of
/// an obs::Histogram over them are good to about 1%.
std::vector<double> fine_buckets(double lo, double hi);

/// One stream of values split into windows, each an obs::Histogram over
/// 1% buckets from 0.01 to 1e8 (its sum is exact).  Every end-to-end
/// statistic is computed per window and reduced across windows to its
/// better quartile: the lower quartile of times, the upper quartile of
/// rates.  On a shared 4-vCPU VM, at any moment about one vCPU runs
/// 1.3-1.7x slow (its host core is shared with other tenants) and which one
/// moves within seconds; a slowdown only adds time, so the better quartile of
/// windows follows the program's own speed where the median follows the
/// share of windows that landed on a slowed CPU.
class WindowedSeries {
 public:
  void add(std::size_t window, double value);

  /// Lower quartile over windows of each window's q-quantile (a time).
  double quantile(double q) const;

  /// Upper quartile over windows of the window's sum over `seconds`.
  double rate(double seconds) const;

  /// Upper quartile over windows of this series' sum over `den`'s sum.
  double ratio_to(const WindowedSeries& den) const;

 private:
  std::vector<std::unique_ptr<lpvs::obs::Histogram>> histograms_;
};

/// The measuring interval of a run cut into kCount equal windows of time.
class Windows {
 public:
  static constexpr std::size_t kCount = 8;

  Windows(Clock::time_point start, double seconds)
      : start_(start), window_(seconds / static_cast<double>(kCount)) {}

  double seconds() const { return window_; }

  /// The window `t` falls in; kCount when it falls after the last one.
  std::size_t at(Clock::time_point t) const {
    const double offset = std::chrono::duration<double>(t - start_).count();
    if (offset < 0.0) return kCount;
    return std::min(kCount, static_cast<std::size_t>(offset / window_));
  }

  /// Adds `value` to the window `t` falls in; drops it past the last one.
  void add(WindowedSeries& series, Clock::time_point t, double value) const {
    const std::size_t w = at(t);
    if (w < kCount) series.add(w, value);
  }

 private:
  Clock::time_point start_;
  double window_;
};

/// Moves the whole process from CPU to CPU, one CPU per window.
///
/// Other tenants of the machine slow single cores for seconds to minutes,
/// and a thread the scheduler leaves on a slowed core reads slow for the
/// whole run.  Each window pins every thread of the process to one CPU and
/// moves on to the next CPU the process may use, so every core gets its
/// share of windows and the window statistics do not depend on where the
/// run happened to land.  One CPU, not a pair: a message between
/// threads on two vCPUs pays a wakeup of an idle vCPU, whose latency swings
/// with the host's load (serving p99 RTT from 60 to 470 µs between runs of
/// one build), so serving figures are single-core figures.
class CpuRotation {
 public:
  CpuRotation();

  /// Pins every thread of the process to window `w`'s CPU, when it is not
  /// there already.  Threads started later inherit the pin of the thread
  /// that starts them.
  void enter(std::size_t w);

 private:
  std::vector<int> cpus_;
  std::size_t current_ = SIZE_MAX;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

const lpvs::survey::AnxietyModel& anxiety_model();

// The workloads.  Each measures for opt.seconds; with opt.trace it fills
// the per-layer metrics, otherwise the end-to-end ones.
WorkloadResult run_serve(const Options& opt, bool abr);
WorkloadResult run_emulate(const Options& opt);
WorkloadResult run_fleet(const Options& opt);

}  // namespace lpvsbench
