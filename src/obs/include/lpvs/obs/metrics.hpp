// Fleet observability substrate (reproduction extension).
//
// The ROADMAP's target is an edge service for millions of viewers; the
// only way later scaling PRs can be *measured* instead of guessed is a
// first-class metrics pipeline (EVSO-style per-component accounting; the
// QoMEX'22 crowdsourcing line of work makes the same point for energy/QoE
// models).  This header provides:
//
//   - MetricsRegistry: thread-safe named counters, gauges and fixed-bucket
//     histograms.  Handles returned by the registry are stable for its
//     lifetime, and every mutation is lock-free (atomics), so hot paths
//     resolve a handle once and write without contention.
//   - ScopedTimer: RAII wall-clock section timer feeding a histogram.
//   - MetricsSnapshot: a plain-data copy of the registry with *typed named
//     lookups* (counter_value / gauge_value / histogram views) and a
//     monotonic sequence number, with Prometheus-style text exposition and
//     a common::Json export sharing the same serialization path as
//     emu/metrics_io.  Consumers read fields by name through the typed
//     accessors — never by parsing exposition text.
//   - MetricsDelta: the change between two snapshots of the same registry
//     (counter increments, gauge last-values, histogram bucket
//     increments), cheap to compute and small to ship — the unit the
//     telemetry exporter (telemetry.hpp) moves off-process.
//
// Design contract (enforced by tests/obs_test.cpp): instrumentation is
// *observational only* — attaching or detaching a registry must never
// change what an instrumented run computes.  A null registry pointer is
// the disabled state; every instrumentation site guards on it, so the
// disabled cost is one branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lpvs/common/json.hpp"

namespace lpvs::obs {

/// Monotone event count.  Lock-free.
class Counter {
 public:
  void add(long delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long> value_{0};
};

/// Last-write-wins instantaneous value.  Lock-free.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram over non-negative samples: per-bucket atomic
/// counts plus running sum/count, with Prometheus-style interpolated
/// quantile estimates.  Bucket bounds are upper bounds (le semantics); an
/// implicit overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  long bucket_count(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Interpolated q-quantile estimate (q in [0, 1]); samples landing in
  /// the overflow bucket are attributed to the last finite bound.
  double quantile(double q) const;

 private:
  std::vector<double> upper_bounds_;                 // sorted, finite
  std::vector<std::atomic<long>> buckets_;           // size bounds + 1
  std::atomic<long> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Plain-data copies of one metric each; what snapshot_all() returns.
struct CounterSample {
  std::string name;
  std::string help;
  long value = 0;
};

struct GaugeSample {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string help;
  std::vector<double> upper_bounds;
  std::vector<long> bucket_counts;  ///< per-bucket, size upper_bounds + 1
  long count = 0;
  double sum = 0.0;

  double quantile(double q) const;
};

/// A point-in-time copy of every registered metric, in registration order,
/// stamped with a per-registry monotonic sequence number.
///
/// The typed accessors are the supported way to read a metric by name;
/// scanning the vectors (or worse, parsing exposition() text) is what this
/// API replaced.  Lookups are linear — registries hold tens of metrics,
/// not thousands, and a snapshot is plain data with no index to keep
/// coherent.
struct MetricsSnapshot {
  /// Monotonic per-registry snapshot counter (1 for the first snapshot).
  /// Two snapshots of one registry order by it; the exporter uses it to
  /// stamp deltas so the collector can detect loss.
  std::uint64_t sequence = 0;

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Typed named lookups; null when `name` was never registered.
  const CounterSample* counter(std::string_view name) const;
  const GaugeSample* gauge(std::string_view name) const;
  const HistogramSample* histogram(std::string_view name) const;

  /// Value shorthands for the overwhelmingly common "read one number"
  /// case; `fallback` when the metric is absent.
  long counter_value(std::string_view name, long fallback = 0) const;
  double gauge_value(std::string_view name, double fallback = 0.0) const;
  /// Interpolated quantile of a named histogram; `fallback` when absent.
  double histogram_quantile(std::string_view name, double q,
                            double fallback = 0.0) const;
};

/// One counter's change between two snapshots: `increment` is always
/// >= 0 (counters are monotone within a registry's lifetime).
struct CounterDelta {
  std::string name;
  long increment = 0;
};

/// Gauges are last-write-wins, so the delta carries the new value.
struct GaugeDelta {
  std::string name;
  double value = 0.0;
};

/// One histogram's change: per-bucket count increments plus the sum
/// increment.  Bounds ride along so every delta frame is self-describing
/// (a collector can join mid-stream).
struct HistogramDelta {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<long> bucket_increments;  ///< size upper_bounds + 1
  long count_increment = 0;
  double sum_increment = 0.0;
};

/// The change from one snapshot of a registry to a later one.  Metrics
/// that did not move are omitted (gauges: omitted when bit-identical), so
/// a quiet interval costs a near-empty frame on the wire.
struct MetricsDelta {
  std::uint64_t sequence = 0;       ///< the newer snapshot's sequence
  std::uint64_t base_sequence = 0;  ///< the older snapshot's sequence
  std::vector<CounterDelta> counters;
  std::vector<GaugeDelta> gauges;
  std::vector<HistogramDelta> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// The change from `older` to `newer`.  Both must come from the same
/// registry (metrics matched by name; a metric absent from `older` is
/// treated as starting from zero).
MetricsDelta delta_since(const MetricsSnapshot& older,
                         const MetricsSnapshot& newer);

/// Thread-safe metric registry.  Registration takes a mutex; returned
/// references stay valid (and lock-free to mutate) for the registry's
/// lifetime.  Re-registering a name returns the existing metric.
///
/// Naming convention (docs/observability.md): lpvs_<module>_<what>[_<unit>]
/// with counters suffixed _total, e.g. lpvs_scheduler_solve_ms,
/// lpvs_emu_giveups_total, lpvs_server_decode_errors_total.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// `upper_bounds` must be sorted ascending; ignored (the existing
  /// histogram wins) when `name` is already registered.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       const std::string& help = "");

  /// Bucket ladders for the common cases.
  static std::vector<double> time_buckets_ms();
  static std::vector<double> linear_buckets(double start, double step,
                                            int count);

  /// A consistent point-in-time copy of every metric: the registration
  /// lock is held across the whole pass (no registration can interleave),
  /// and each histogram is read with a bounded retry loop that re-checks
  /// its total count, so within one HistogramSample the bucket counts sum
  /// to `count` even while writers are observing concurrently.  Stamps the
  /// next monotonic sequence number.
  MetricsSnapshot snapshot_all() const;

  /// Alias for snapshot_all() — the historical name.
  MetricsSnapshot snapshot() const { return snapshot_all(); }

  /// Prometheus text exposition of a fresh snapshot.
  std::string exposition() const;

 private:
  template <typename Metric>
  struct Entry {
    std::string name;
    std::string help;
    std::unique_ptr<Metric> metric;
  };

  mutable std::mutex mutex_;
  mutable std::uint64_t snapshot_sequence_ = 0;  ///< guarded by mutex_
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
};

/// RAII wall-clock timer: observes elapsed milliseconds into `sink` on
/// destruction.  A null sink skips the clock reads entirely, so a timer
/// on a disabled registry costs one branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* sink) : sink_(sink) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (sink_ != nullptr) sink_->observe(elapsed_ms());
  }

  double elapsed_ms() const {
    if (sink_ == nullptr) return 0.0;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
};

/// Prometheus text exposition format (# HELP / # TYPE / samples, with
/// cumulative le buckets for histograms).
std::string exposition(const MetricsSnapshot& snapshot);

/// JSON export via the same common::Json path as emu/metrics_io (also
/// re-exported there as emu::to_json alongside the RunMetrics overloads).
common::Json to_json(const MetricsSnapshot& snapshot);

}  // namespace lpvs::obs
