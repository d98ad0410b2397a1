// Machine-readable bench output: benches that back a performance claim
// write a BENCH_<name>.json next to their stdout tables, so CI and
// regression tooling can diff runs without scraping text.
//
// Schema v2: every file carries the same envelope, so tooling can diff any
// bench without per-bench knowledge of the payload:
//
//   {
//     "schema": 2,
//     "bench": "<name>",
//     "pass": true,
//     "meta":    { compiler, build flavor, cpu model, core count,
//                  unix time },
//     "knobs":   { the fixed/swept configuration of this run },
//     "metrics": [ one object per measured configuration ]
//   }
//
// `knobs` answers "what was asked for", `metrics` "what was measured";
// regression tooling joins runs on (bench, knobs) and diffs metrics.
#pragma once

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lpvs/common/json.hpp"

namespace lpvs::bench {

/// The host's CPU model (the first "model name" of /proc/cpuinfo), or
/// "unknown" where that file is missing.
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

/// Run metadata stamped into every schema-v2 document: enough to tell two
/// archived runs apart (toolchain, build flavor, host, machine width,
/// when).
inline common::Json run_meta() {
  common::Json meta = common::Json::object();
  meta.set("compiler", std::string(__VERSION__));
  meta.set("cplusplus", static_cast<long>(__cplusplus));
#ifdef NDEBUG
  meta.set("build", "release");
#else
  meta.set("build", "debug");
#endif
  meta.set("cpu_model", cpu_model());
  meta.set("hardware_concurrency",
           static_cast<long>(std::thread::hardware_concurrency()));
  meta.set("unix_time_s", static_cast<long>(std::time(nullptr)));
  return meta;
}

/// Assembles the schema-v2 envelope around a bench's knobs and metrics.
inline common::Json bench_doc(const std::string& name, bool pass,
                              common::Json knobs, common::Json metrics) {
  common::Json doc = common::Json::object();
  doc.set("schema", 2);
  doc.set("bench", name);
  doc.set("pass", pass);
  doc.set("meta", run_meta());
  doc.set("knobs", std::move(knobs));
  doc.set("metrics", std::move(metrics));
  return doc;
}

/// Writes `doc` to BENCH_<name>.json in the working directory.
inline bool write_bench_json(const std::string& name,
                             const common::Json& doc) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << doc.dump(2) << '\n';
  out.flush();
  if (!out) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Exact q-th percentile of the samples (nearest-rank on a sorted copy);
/// 0 when there are no samples.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

}  // namespace lpvs::bench
