// In-memory span recorder for the traced run.
//
// The benchmark records spans only from its own files, around the calls it
// makes into each layer: one per loadgen run, emulator instance, fleet day
// and fleet slot, and one per Scheduler::schedule() call (through the
// timing decorator).  Spans stay in memory and are written out as JSONL
// when the run ends.  A layer's self time is its spans' duration minus the
// part of each span that its children cover (children may run in parallel,
// so the covered part is the union of their intervals, not their sum).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace lpvsbench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< a string literal
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
};

/// Summed over every span of one name.
struct LayerTime {
  double self_us = 0.0;
  double children_us = 0.0;  ///< covered by children (union per span)
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A fresh span id (ids start at 1).  Reserve before the span starts
  /// when its children must name it as their parent.
  std::uint32_t reserve() { return next_id_.fetch_add(1) + 1; }

  void record(std::uint32_t id, std::uint32_t parent, const char* name,
              Clock::time_point start, Clock::time_point end);

  /// The span that calls made from now on belong to.  Set by a workload
  /// around its call into a layer, read by the decorator, possibly from
  /// another thread (a daemon worker, a federation pool thread).
  void set_parent(std::uint32_t id) { parent_.store(id); }
  std::uint32_t parent() const { return parent_.load(); }

  std::size_t size() const;
  LayerTime layer(const std::string& name) const;
  bool write_jsonl(const std::string& path) const;

 private:
  const Clock::time_point epoch_;
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint32_t> parent_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// The obs.* metrics of a traced run: `obs.trace_overhead_pct` from the
/// traced and untraced halves' wall time per unit of work, and
/// `obs.spans`.  Writes the spans to
/// .bench_build/spans/<workload>-<seed>.jsonl; a failed write makes the run
/// incorrect.
void finish_traced(const Options& opt, const SpanRecorder& spans,
                   double traced_cost, double untraced_cost,
                   WorkloadResult& result);

}  // namespace lpvsbench
