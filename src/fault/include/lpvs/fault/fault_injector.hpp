// Deterministic fault injection for the LPVS serving stack (tentpole).
//
// A real edge deployment loses signaling messages, receives stale Bayesian
// power-ratio reports, drops CDN-to-edge chunk fetches, and occasionally
// blows its per-slot solve budget.  The happy-path pipeline models none of
// that, so every resilience mechanism (retry, backoff, the degradation
// ladder) would ship untested.  FaultInjector makes those faults *first
// class and reproducible*: each decision is a pure function of
// (seed, site, key_a, key_b), so a chaos run replays bit-for-bit at any
// thread count and a paired run with/without a scheduler sees the same
// faults.
//
// Cost model: the injector is compiled in unconditionally but is zero-cost
// when disabled — every instrumentation site guards on a null pointer or
// `enabled()`, and a default-constructed injector has all probabilities at
// zero.  The obs-determinism contract extends to faults: an attached but
// all-zero injector must leave every computed result bit-identical to a
// run with no injector at all (tests/fault_test.cpp asserts it).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "lpvs/common/rng.hpp"

namespace lpvs::fault {

/// Where a fault can strike.  Sites are configured independently so a
/// chaos scenario can, say, drop signaling while leaving chunk delivery
/// clean.
enum class FaultSite : int {
  kSignalingUplink = 0,  ///< device report -> edge scheduler
  kSignalingDownlink,    ///< edge decision -> device
  kBayesReport,          ///< per-slot observed power-ratio report
  kChunkDelivery,        ///< CDN -> edge chunk fetch
  kEncoderWorker,        ///< unused; kept so later sites keep the index
                         ///< their decisions hash
  kNetworkLink,          ///< device last-hop throughput (outage / degrade)
  kSolverBudget,         ///< per-slot solve deadline (overrun -> degrade)
  kServerCrash,          ///< edge server loses in-memory state (fleet)
  kHandoffTransfer,      ///< inter-server session-state transfer (fleet)
  kTelemetryExport,      ///< exporter -> collector delta frame (obs)
};
inline constexpr int kFaultSiteCount = 10;

/// Stable lowercase label (metrics names, traces, logs).
const char* fault_site_name(FaultSite site);

enum class FaultKind : int { kNone = 0, kDrop, kDelay, kCorrupt };

/// Per-site fault mix.  Probabilities are per *decision* (one delivery
/// attempt, one report, one job); drop is checked first, then delay, then
/// corrupt, so drop + delay + corrupt should stay <= 1.
struct SiteConfig {
  double drop = 0.0;     ///< lose the message / overrun the budget
  double delay = 0.0;    ///< deliver late (exponential transit delay)
  double corrupt = 0.0;  ///< deliver a perturbed payload
  double delay_ms_mean = 50.0;  ///< mean of the injected delay
  double corrupt_scale = 0.25;  ///< relative payload perturbation bound

  bool enabled() const { return drop > 0.0 || delay > 0.0 || corrupt > 0.0; }
};

/// What the injector decided for one (site, key_a, key_b) triple.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  double delay_ms = 0.0;        ///< valid when kind == kDelay
  double corrupt_factor = 0.0;  ///< in [-scale, scale]; valid when kCorrupt

  bool none() const { return kind == FaultKind::kNone; }
  bool dropped() const { return kind == FaultKind::kDrop; }
  bool delayed() const { return kind == FaultKind::kDelay; }
  bool corrupted() const { return kind == FaultKind::kCorrupt; }
};

/// Running injection totals (atomics; safe to read concurrently).  Totals
/// depend on how often sites consult the injector, unlike the decisions
/// themselves, which depend only on the keys.
struct FaultStats {
  long decisions = 0;
  long drops = 0;
  long delays = 0;
  long corruptions = 0;
  std::array<long, kFaultSiteCount> drops_by_site{};

  long injected() const { return drops + delays + corruptions; }
};

class FaultInjector {
 public:
  struct Config {
    std::uint64_t seed = 0;
    std::array<SiteConfig, kFaultSiteCount> sites{};

    SiteConfig& site(FaultSite s) { return sites[static_cast<int>(s)]; }
    const SiteConfig& site(FaultSite s) const {
      return sites[static_cast<int>(s)];
    }

    /// The chaos-soak shape: the same drop/delay/corrupt mix at every site.
    static Config uniform(std::uint64_t seed, double drop, double delay = 0.0,
                          double corrupt = 0.0);
  };

  /// Disabled: every probability zero, every decision kNone.
  FaultInjector() = default;
  explicit FaultInjector(Config config) : config_(config) {}

  bool enabled() const {
    for (const SiteConfig& site : config_.sites) {
      if (site.enabled()) return true;
    }
    return false;
  }
  bool site_enabled(FaultSite site) const {
    return config_.site(site).enabled();
  }

  /// The decision for (site, key_a, key_b): a pure function of the seed and
  /// the keys.  Callers choose keys that identify the delivery attempt —
  /// typically (device, slot * k + attempt) — so retries of the same
  /// message draw fresh faults while replays of the same run do not.
  FaultDecision decide(FaultSite site, std::uint64_t key_a,
                       std::uint64_t key_b = 0) const;

  /// Shorthand for sites where only loss matters.
  bool should_drop(FaultSite site, std::uint64_t key_a,
                   std::uint64_t key_b = 0) const {
    return decide(site, key_a, key_b).dropped();
  }

  FaultStats stats() const;
  void reset_stats();

  const Config& config() const { return config_; }

 private:
  Config config_;
  // Mutable: decide() is logically const (the decision is key-determined);
  // the counters are observability, not state the decision reads.
  mutable std::atomic<long> decisions_{0};
  mutable std::atomic<long> drops_{0};
  mutable std::atomic<long> delays_{0};
  mutable std::atomic<long> corruptions_{0};
  mutable std::array<std::atomic<long>, kFaultSiteCount> site_drops_{};
};

}  // namespace lpvs::fault
