#include "spans.hpp"

#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

namespace lpvsbench {

void SpanRecorder::record(std::uint32_t id, std::uint32_t parent,
                          const char* name, Clock::time_point start,
                          Clock::time_point end) {
  Span span{id, parent, name,
            std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
                .count(),
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
                .count()};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

LayerTime SpanRecorder::layer(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  LayerTime out;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    const double total_us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    double covered_us = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = span.start_ns;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, span.end_ns);
        if (hi <= lo) continue;
        covered_us += static_cast<double>(hi - lo) / 1e3;
        cursor = hi;
      }
    }
    out.children_us += covered_us;
    out.self_us += total_us - covered_us;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 span.id, span.parent, span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

void finish_traced(const Options& opt, const SpanRecorder& spans,
                   double traced_cost, double untraced_cost,
                   WorkloadResult& result) {
  result.metrics["obs.trace_overhead_pct"] =
      100.0 * (ratio(traced_cost, untraced_cost) - 1.0);
  result.metrics["obs.spans"] = static_cast<double>(spans.size());
  if (!spans.write_jsonl(".bench_build/spans/" + opt.workload + "-" +
                         std::to_string(opt.seed) + ".jsonl")) {
    result.correct = false;
  }
}

}  // namespace lpvsbench
