// Golden bit-identity pin for the emulated slot path (label `differential`).
//
// The emulator's gather -> schedule -> play loop and the federation's
// per-server serve phase are tuned for speed under one hard rule: the same
// arithmetic in the same order, so every run returns the same bits.  The
// paired with/without-LPVS comparisons, the replay digests and the
// benchmark's determinism line all lean on that.  This suite folds the
// observable result of a seeded corpus of runs into one FNV-1a digest per
// corpus and compares it against a constant captured from the reference
// implementation.  Any change to a summation order, an RNG stream or a
// pricing path moves a digest.
//
// Corpus:
//   - emulator runs at group_size 60, seeds 1-3, over seven
//     configurations: Bayesian (the paper's default), oracle gamma, NIG,
//     fixed prior, one-slot-ahead, Remark-1 switching at probability 0.5,
//     and a uniform fault injector on every site; each run folds the
//     RunMetrics fields the benchmark's determinism digest uses (every
//     deterministic field; mean_scheduler_ms is wall-clock and stays out);
//   - a failover-style federation run (mobility 0.05, server crashes at
//     0.10, checkpoint interval 1) at 1 and 2 serve threads, folding each
//     report's state_digest.
//
// When a deliberate numerical change moves a digest, the new constant is
// printed by the failing assertion; updating it is a reviewed decision,
// never a drive-by.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "lpvs/common/wire.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/emu/emulator.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fleet/federation.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs {
namespace {

/// Digests of the reference implementation over the corpora below.
constexpr std::uint64_t kEmulatorGoldenDigest = 0xCB067059C274A17CULL;
constexpr std::uint64_t kFederationGoldenDigest = 0x2D521A1227923675ULL;

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return common::wire::fnv1a(digest, bytes, sizeof bytes);
}

std::uint64_t fold(std::uint64_t digest, double value) {
  return fold(digest, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t fold(std::uint64_t digest, const emu::RunMetrics& m) {
  digest = fold(digest, m.total_energy_mwh);
  digest = fold(digest, m.mean_anxiety);
  digest = fold(digest, static_cast<std::uint64_t>(m.total_selected));
  digest = fold(digest, static_cast<std::uint64_t>(m.slots_run));
  digest = fold(digest, static_cast<std::uint64_t>(m.anxiety_samples));
  for (const std::vector<double>* column :
       {&m.tpv_minutes, &m.start_fractions, &m.final_fractions,
        &m.last_gamma_estimate, &m.mean_true_gamma}) {
    for (double v : *column) digest = fold(digest, v);
  }
  for (std::uint8_t served : m.served) {
    digest = fold(digest, static_cast<std::uint64_t>(served));
  }
  return digest;
}

enum class Variant {
  kBayesian,
  kOracle,
  kNig,
  kFixedPrior,
  kOneSlotAhead,
  kSwitching,
  kFaults,
};

constexpr Variant kVariants[] = {
    Variant::kBayesian,   Variant::kOracle,       Variant::kNig,
    Variant::kFixedPrior, Variant::kOneSlotAhead, Variant::kSwitching,
    Variant::kFaults,
};

emu::RunMetrics run_emulator(Variant variant, std::uint64_t seed) {
  emu::EmulatorConfig config;
  config.group_size = 60;
  config.seed = seed;
  switch (variant) {
    case Variant::kBayesian:
      break;
    case Variant::kOracle:
      config.gamma_mode = emu::GammaMode::kOracle;
      break;
    case Variant::kNig:
      config.gamma_mode = emu::GammaMode::kNigBayesian;
      break;
    case Variant::kFixedPrior:
      config.gamma_mode = emu::GammaMode::kFixedPrior;
      break;
    case Variant::kOneSlotAhead:
      config.one_slot_ahead = true;
      break;
    case Variant::kSwitching:
      config.switch_probability = 0.5;
      break;
    case Variant::kFaults:
      break;
  }
  const fault::FaultInjector injector(
      fault::FaultInjector::Config::uniform(seed, /*drop=*/0.1,
                                            /*delay=*/0.1,
                                            /*corrupt=*/0.05));
  core::RunContext context(anxiety());
  if (variant == Variant::kFaults) {
    context = context.with_fault_injector(&injector);
  }
  const core::LpvsScheduler scheduler;
  emu::Emulator emulator(config, scheduler, context);
  return emulator.run();
}

TEST(EmuGolden, EmulatorRunMetricsMatchReference) {
  std::uint64_t digest = common::wire::kFnvOffsetBasis;
  for (const Variant variant : kVariants) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      digest = fold(digest, run_emulator(variant, seed));
    }
  }
  EXPECT_EQ(digest, kEmulatorGoldenDigest)
      << std::hex << "emulator digest 0x" << digest;
}

// Long-lived sessions so the segment stays populated while servers crash
// and users roam between them.
const trace::Trace& long_trace() {
  static const trace::Trace twitch = [] {
    trace::TraceConfig config;
    config.channel_count = 48;
    config.session_count = 200;
    config.horizon_slots = 288;
    config.max_duration_slots = 280;
    config.duration_log_mean = 6.5;
    return trace::TwitchLikeGenerator(config).generate(33);
  }();
  return twitch;
}

fleet::FederationReport run_federation(unsigned threads) {
  fleet::FederationConfig config;
  config.servers = 3;
  config.users = 15;
  config.min_viewers = 1;
  config.start_slot = 20;
  config.slots = 60;
  config.chunks_per_slot = 6;
  config.initial_battery_mean = 0.85;
  config.initial_battery_std = 0.1;
  config.mobility_rate = 0.05;
  config.checkpoint_interval = 1;
  config.threads = threads;
  config.seed = 11;

  fault::FaultInjector::Config faults;
  faults.seed = 901;
  faults.site(fault::FaultSite::kServerCrash).drop = 0.10;
  const fault::FaultInjector injector(faults);
  const core::RunContext context =
      core::RunContext(anxiety()).with_fault_injector(&injector);
  const core::LpvsScheduler scheduler;
  fleet::Federation federation(config, long_trace(), scheduler, context);
  return federation.run();
}

TEST(EmuGolden, FederationStateDigestMatchesReference) {
  std::uint64_t digest = common::wire::kFnvOffsetBasis;
  const fleet::FederationReport serial = run_federation(1);
  const fleet::FederationReport parallel = run_federation(2);
  EXPECT_GT(serial.failovers, 0);
  EXPECT_GT(serial.handoffs, 0);
  EXPECT_EQ(parallel.state_digest, serial.state_digest);
  for (const fleet::FederationReport* report : {&serial, &parallel}) {
    digest = fold(digest, report->state_digest);
  }
  EXPECT_EQ(digest, kFederationGoldenDigest)
      << std::hex << "federation digest 0x" << digest;
}

}  // namespace
}  // namespace lpvs
