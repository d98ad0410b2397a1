// The LPVS benchmark program.
//
//   lpvsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about `seconds` seconds on inputs derived from
// `seed`, checks its outputs, and prints three lines: the run metadata, the
// workload's determinism digest, and, last, the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans go to
// .bench_build/spans/<workload>-<seed>.jsonl.  lpvsbench/README.md defines
// every metric.
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lpvs/common/json.hpp"

namespace lpvsbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py rejects a result that does not).
const std::vector<MetricSpec> kEndToEnd = {
    {"rtt_p50_us", "us"},          {"rtt_p99_us", "us"},
    {"slot_p50_us", "us"},         {"slot_p99_us", "us"},
    {"viewer_slots_per_s", "1/s"}, {"slots_per_s", "1/s"},
    {"setup_s", "s"},              {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"server.syscalls_per_vslot", "count"},
    {"server.read_syscalls_per_vslot", "count"},
    {"server.write_syscalls_per_vslot", "count"},
    {"server.uring_enters_per_vslot", "count"},
    {"server.batch_occupancy_mean", "count"},
    {"server.schedule_us_mean", "us"},
    {"server.outside_schedule_us", "us"},
    {"server.assembly_us_mean", "us"},
    {"server.fallbacks", "count"},
    {"server.shed_slots", "count"},
    {"loadgen.latency_samples", "count"},
    {"loadgen.transport_errors", "count"},
    {"loadgen.protocol_errors", "count"},
    {"loadgen.mean_bitrate_mbps", "Mbps"},
    {"loadgen.rebuffer_s_per_kslot", "s"},
    {"core.calls", "count"},
    {"core.schedule_us_p50", "us"},
    {"core.schedule_us_p99", "us"},
    {"core.schedule_us_mean", "us"},
    {"core.wall_share", "ratio"},
    {"core.devices_per_call", "count"},
    {"core.eligible_frac", "ratio"},
    {"core.selected_per_call", "count"},
    {"core.phase2_swaps_per_call", "count"},
    {"core.degraded_frac", "ratio"},
    {"core.objective_reduction_pct", "%"},
    {"core.energy_saving_pct", "%"},
    {"solver.nodes_per_solve", "count"},
    {"solver.nodes_total", "count"},
    {"solver.cache_exact_hits", "count"},
    {"solver.warm_starts", "count"},
    {"solver.cold_starts", "count"},
    {"solver.warm_hit_frac", "ratio"},
    {"abr.solves", "count"},
    {"abr.nodes_per_solve", "count"},
    {"abr.granted_rung_mean", "count"},
    {"emu.self_us_per_slot", "us"},
    {"emu.bayes_updates_per_slot", "count"},
    {"emu.cache_evictions", "count"},
    {"emu.instances", "count"},
    {"fleet.serve_us_mean", "us"},
    {"fleet.core_us_per_slot", "us"},
    {"fleet.solves_per_slot", "count"},
    {"fleet.handoffs", "count"},
    {"fleet.handoff_retries", "count"},
    {"fleet.handoff_failures", "count"},
    {"fleet.failovers", "count"},
    {"fleet.checkpoint_bytes", "bytes"},
    {"fleet.placement_moves", "count"},
    {"fleet.peak_servers", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.spans", "count"},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "lpvsbench: %s\nusage: lpvsbench --workload "
               "<serve_c4|serve_abr_c4|emulate_c200|fleet_day> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname name{};
  if (::uname(&name) != 0) return "unknown";
  return std::string(name.sysname) + " " + name.release;
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::vector<double> fine_buckets(double lo, double hi) {
  std::vector<double> bounds;
  for (double b = lo; b < hi; b *= 1.01) bounds.push_back(b);
  return bounds;
}

void WindowedSeries::add(std::size_t window, double value) {
  static const std::vector<double> kBuckets = fine_buckets(1e-2, 1e8);
  while (histograms_.size() <= window) {
    histograms_.push_back(std::make_unique<lpvs::obs::Histogram>(kBuckets));
  }
  histograms_[window]->observe(value);
}

double WindowedSeries::quantile(double q) const {
  std::vector<double> per_window;
  for (const auto& h : histograms_) {
    if (h->count() > 0) per_window.push_back(h->quantile(q));
  }
  return lpvsbench::quantile(per_window, 0.25);
}

double WindowedSeries::rate(double seconds) const {
  std::vector<double> per_window;
  for (const auto& h : histograms_) per_window.push_back(h->sum() / seconds);
  return lpvsbench::quantile(per_window, 0.75);
}

double WindowedSeries::ratio_to(const WindowedSeries& den) const {
  std::vector<double> per_window;
  for (std::size_t w = 0;
       w < histograms_.size() && w < den.histograms_.size(); ++w) {
    const double d = den.histograms_[w]->sum();
    if (d > 0.0) per_window.push_back(histograms_[w]->sum() / d);
  }
  return lpvsbench::quantile(per_window, 0.75);
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
}

void CpuRotation::enter(std::size_t w) {
  if (cpus_.empty() || w % cpus_.size() == current_) return;
  current_ = w % cpus_.size();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[current_], &one);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    (void)::sched_setaffinity(tid, sizeof(one), &one);
  }
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the parent that forked this process if that parent was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  return 0.0;
}

const lpvs::survey::AnxietyModel& anxiety_model() {
  static const lpvs::survey::AnxietyModel model =
      lpvs::survey::AnxietyModel::reference();
  return model;
}

}  // namespace lpvsbench

int main(int argc, char** argv) {
  using namespace lpvsbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  WorkloadResult result;
  if (opt.workload == "serve_c4") {
    result = run_serve(opt, /*abr=*/false);
  } else if (opt.workload == "serve_abr_c4") {
    result = run_serve(opt, /*abr=*/true);
  } else if (opt.workload == "emulate_c200") {
    result = run_emulate(opt);
  } else if (opt.workload == "fleet_day") {
    result = run_fleet(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  lpvs::common::Json meta = lpvs::common::Json::object();
  meta.set("workload", opt.workload);
  meta.set("seed", std::to_string(opt.seed));
  meta.set("seconds", opt.seconds);
  meta.set("trace", opt.trace);
  meta.set("nproc", static_cast<long>(::sysconf(_SC_NPROCESSORS_ONLN)));
  meta.set("hardware_concurrency",
           static_cast<long>(std::thread::hardware_concurrency()));
  meta.set("cpu_model", cpu_model());
  meta.set("kernel", kernel());
  meta.set("compiler", std::string("g++ ") + __VERSION__);
  meta.set("build_type", LPVSBENCH_BUILD_TYPE);
  for (const auto& [key, value] : result.meta) meta.set(key, value);
  lpvs::common::Json line = lpvs::common::Json::object();
  line.set("meta", std::move(meta));
  std::printf("%s\n", line.dump().c_str());
  std::printf("digest %s seed=%llu 0x%016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(result.digest));

  const std::vector<MetricSpec>& specs = opt.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    // A per-layer metric a workload does not reach reads 0; an end-to-end
    // metric every workload must measure.
    if (it == result.metrics.end() && !opt.trace) {
      std::fprintf(stderr, "lpvsbench: %s did not measure %s\n",
                   opt.workload.c_str(), spec.name);
      return 1;
    }
    const double value = it != result.metrics.end() ? it->second : 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(spec.name).append("\": {\"value\": ");
    metrics.append(format_number(value)).append(", \"unit\": \"");
    metrics.append(spec.unit).append("\"}");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false", std::max(result.attempted, 1L),
      result.failed, metrics.c_str());
  return 0;
}
