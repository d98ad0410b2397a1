// Tests for the fault-injection layer: deterministic per-site decisions,
// retry-with-backoff policies, the lossy signaling exchange, the
// degradation ladder (including how its rungs feed the solve cache), and
// the contract that a disabled injector leaves every computed result
// bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lpvs/core/scheduler.hpp"
#include "lpvs/core/signaling.hpp"
#include "lpvs/emu/emulator.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fault/retry.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/solver/solve_cache.hpp"
#include "lpvs/streaming/abr.hpp"

namespace lpvs {
namespace {

// ------------------------------------------------------------ injector --

TEST(FaultInjector, DisabledByDefault) {
  const fault::FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_TRUE(
        injector.decide(fault::FaultSite::kSignalingUplink, key).none());
  }
  EXPECT_EQ(injector.stats().injected(), 0);
}

TEST(FaultInjector, DecisionsArePureFunctionsOfSeedAndKeys) {
  const auto config = fault::FaultInjector::Config::uniform(7, 0.3, 0.2, 0.2);
  const fault::FaultInjector a(config);
  const fault::FaultInjector b(config);
  for (std::uint64_t key = 0; key < 500; ++key) {
    const auto da = a.decide(fault::FaultSite::kChunkDelivery, key, key * 3);
    const auto db = b.decide(fault::FaultSite::kChunkDelivery, key, key * 3);
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind));
    EXPECT_DOUBLE_EQ(da.delay_ms, db.delay_ms);
    EXPECT_DOUBLE_EQ(da.corrupt_factor, db.corrupt_factor);
  }
}

TEST(FaultInjector, DecisionsAreCallOrderIndependent) {
  const auto config = fault::FaultInjector::Config::uniform(11, 0.4);
  const fault::FaultInjector forward(config);
  const fault::FaultInjector backward(config);
  std::vector<bool> drops_forward;
  std::vector<bool> drops_backward(200);
  for (std::uint64_t key = 0; key < 200; ++key) {
    drops_forward.push_back(
        forward.should_drop(fault::FaultSite::kBayesReport, key));
  }
  for (std::uint64_t key = 200; key-- > 0;) {
    drops_backward[key] =
        backward.should_drop(fault::FaultSite::kBayesReport, key);
  }
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(drops_forward[key], drops_backward[key]) << key;
  }
}

TEST(FaultInjector, DifferentSeedsDifferSomewhere) {
  const fault::FaultInjector a(fault::FaultInjector::Config::uniform(1, 0.5));
  const fault::FaultInjector b(fault::FaultInjector::Config::uniform(2, 0.5));
  int disagreements = 0;
  for (std::uint64_t key = 0; key < 200; ++key) {
    if (a.should_drop(fault::FaultSite::kNetworkLink, key) !=
        b.should_drop(fault::FaultSite::kNetworkLink, key)) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjector, ObservedDropRateTracksConfiguredRate) {
  const fault::FaultInjector injector(
      fault::FaultInjector::Config::uniform(3, 0.2));
  int drops = 0;
  const int trials = 10000;
  for (int key = 0; key < trials; ++key) {
    if (injector.should_drop(fault::FaultSite::kChunkDelivery,
                             static_cast<std::uint64_t>(key))) {
      ++drops;
    }
  }
  const double rate = static_cast<double>(drops) / trials;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(FaultInjector, SitesAreConfiguredIndependently) {
  fault::FaultInjector::Config config;
  config.seed = 5;
  config.site(fault::FaultSite::kBayesReport).drop = 1.0;
  const fault::FaultInjector injector(config);
  EXPECT_TRUE(injector.site_enabled(fault::FaultSite::kBayesReport));
  EXPECT_FALSE(injector.site_enabled(fault::FaultSite::kChunkDelivery));
  for (std::uint64_t key = 0; key < 50; ++key) {
    EXPECT_TRUE(injector.should_drop(fault::FaultSite::kBayesReport, key));
    EXPECT_FALSE(injector.should_drop(fault::FaultSite::kChunkDelivery, key));
  }
}

TEST(FaultInjector, StatsCountInjections) {
  fault::FaultInjector::Config config;
  config.site(fault::FaultSite::kEncoderWorker).drop = 1.0;
  const fault::FaultInjector injector(config);
  for (std::uint64_t key = 0; key < 25; ++key) {
    (void)injector.decide(fault::FaultSite::kEncoderWorker, key);
  }
  const fault::FaultStats stats = injector.stats();
  EXPECT_EQ(stats.drops, 25);
  EXPECT_EQ(stats.drops_by_site[static_cast<int>(
                fault::FaultSite::kEncoderWorker)],
            25);
}

TEST(FaultInjector, EverySiteHasAName) {
  for (int s = 0; s < fault::kFaultSiteCount; ++s) {
    EXPECT_STRNE(fault::fault_site_name(static_cast<fault::FaultSite>(s)), "");
  }
}

TEST(FaultInjector, UniformConfigEnablesEverySiteAlike) {
  const auto config = fault::FaultInjector::Config::uniform(9, 0.1, 0.2, 0.3);
  const fault::FaultInjector injector(config);
  EXPECT_TRUE(injector.enabled());
  EXPECT_EQ(injector.config().seed, 9u);
  for (int s = 0; s < fault::kFaultSiteCount; ++s) {
    const auto site = static_cast<fault::FaultSite>(s);
    EXPECT_TRUE(injector.site_enabled(site)) << fault::fault_site_name(site);
    EXPECT_EQ(config.site(site).drop, 0.1);
    EXPECT_EQ(config.site(site).delay, 0.2);
    EXPECT_EQ(config.site(site).corrupt, 0.3);
  }
}

TEST(FaultInjector, DelayDecisionsCarryExponentialDelays) {
  fault::FaultInjector::Config config;
  fault::SiteConfig& site = config.site(fault::FaultSite::kSignalingDownlink);
  site.delay = 1.0;
  site.delay_ms_mean = 40.0;
  const fault::FaultInjector injector(config);
  constexpr int kDraws = 4000;
  double total_ms = 0.0;
  for (std::uint64_t key = 0; key < kDraws; ++key) {
    const fault::FaultDecision d =
        injector.decide(fault::FaultSite::kSignalingDownlink, key);
    ASSERT_TRUE(d.delayed()) << "key " << key;
    EXPECT_FALSE(d.dropped() || d.corrupted() || d.none());
    ASSERT_GE(d.delay_ms, 0.0);
    EXPECT_EQ(d.corrupt_factor, 0.0);
    total_ms += d.delay_ms;
  }
  // Mean of 4000 exponential draws: standard error is 40/sqrt(4000) ~ 0.6.
  EXPECT_NEAR(total_ms / kDraws, 40.0, 3.0);
  EXPECT_EQ(injector.stats().delays, kDraws);
  EXPECT_EQ(injector.stats().drops, 0);
}

TEST(FaultInjector, CorruptFactorsStayWithinTheConfiguredScale) {
  fault::FaultInjector::Config config;
  fault::SiteConfig& site = config.site(fault::FaultSite::kBayesReport);
  site.corrupt = 1.0;
  site.corrupt_scale = 0.1;
  const fault::FaultInjector injector(config);
  bool saw_negative = false;
  bool saw_positive = false;
  for (std::uint64_t key = 0; key < 500; ++key) {
    const fault::FaultDecision d =
        injector.decide(fault::FaultSite::kBayesReport, key, key + 1);
    ASSERT_TRUE(d.corrupted()) << "key " << key;
    EXPECT_GE(d.corrupt_factor, -0.1);
    EXPECT_LE(d.corrupt_factor, 0.1);
    EXPECT_EQ(d.delay_ms, 0.0);
    saw_negative = saw_negative || d.corrupt_factor < 0.0;
    saw_positive = saw_positive || d.corrupt_factor > 0.0;
  }
  EXPECT_TRUE(saw_negative && saw_positive);  // symmetric, not one-sided
  EXPECT_EQ(injector.stats().corruptions, 500);
}

TEST(FaultInjector, DropIsCheckedBeforeDelayAndCorrupt) {
  fault::FaultInjector::Config config;
  fault::SiteConfig& site = config.site(fault::FaultSite::kChunkDelivery);
  site.drop = 1.0;
  site.delay = 1.0;
  site.corrupt = 1.0;
  const fault::FaultInjector injector(config);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_TRUE(injector.decide(fault::FaultSite::kChunkDelivery, key)
                    .dropped());
  }
  EXPECT_EQ(injector.stats().injected(), injector.stats().drops);
}

TEST(FaultInjector, ResetStatsClearsTotalsButNotDecisions) {
  fault::FaultInjector injector(
      fault::FaultInjector::Config::uniform(21, 0.3, 0.3, 0.3));
  std::vector<fault::FaultKind> before;
  for (std::uint64_t key = 0; key < 200; ++key) {
    before.push_back(injector.decide(fault::FaultSite::kNetworkLink, key).kind);
  }
  // Only enabled sites count as decisions.
  const fault::FaultInjector clean;
  (void)clean.decide(fault::FaultSite::kNetworkLink, 1);
  EXPECT_EQ(clean.stats().decisions, 0);

  EXPECT_EQ(injector.stats().decisions, 200);
  EXPECT_GT(injector.stats().injected(), 0);
  injector.reset_stats();
  const fault::FaultStats zeroed = injector.stats();
  EXPECT_EQ(zeroed.decisions, 0);
  EXPECT_EQ(zeroed.injected(), 0);
  for (long by_site : zeroed.drops_by_site) EXPECT_EQ(by_site, 0);

  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(injector.decide(fault::FaultSite::kNetworkLink, key).kind,
              before[key])
        << "key " << key;
  }
  EXPECT_EQ(injector.stats().decisions, 200);
}

// ------------------------------------------------------------- backoff --

TEST(Backoff, ScheduleIsDeterministicAndExponential) {
  fault::BackoffPolicy policy;
  policy.initial_ms = 10.0;
  policy.multiplier = 2.0;
  policy.max_ms = 35.0;
  policy.max_attempts = 5;
  EXPECT_DOUBLE_EQ(policy.delay_ms(1), 0.0);  // no wait before attempt 1
  EXPECT_DOUBLE_EQ(policy.delay_ms(2), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(3), 20.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(4), 35.0);  // capped (40 -> 35)
  EXPECT_DOUBLE_EQ(policy.delay_ms(5), 35.0);
  EXPECT_DOUBLE_EQ(policy.total_backoff_ms(), 10.0 + 20.0 + 35.0 + 35.0);
}

TEST(Backoff, JitterIsBoundedAndSeedReproducible) {
  fault::BackoffPolicy policy;
  policy.initial_ms = 100.0;
  policy.jitter = 0.25;
  common::Rng rng_a(99);
  common::Rng rng_b(99);
  for (int attempt = 2; attempt <= 4; ++attempt) {
    const double a = policy.delay_ms(attempt, rng_a);
    const double b = policy.delay_ms(attempt, rng_b);
    EXPECT_DOUBLE_EQ(a, b);
    const double base = policy.delay_ms(attempt);
    EXPECT_GE(a, base * 0.75 - 1e-9);
    EXPECT_LE(a, base * 1.25 + 1e-9);
  }
}

// --------------------------------------------------------------- retry --

TEST(Retry, FirstAttemptSuccessNeedsNoBackoff) {
  const fault::BackoffPolicy policy;
  const fault::RetryResult result = fault::retry_with_backoff(
      policy, [](int) { return common::Status::Ok(); });
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_DOUBLE_EQ(result.backoff_ms, 0.0);
}

TEST(Retry, DropRetrySuccessAccountsBackoff) {
  fault::BackoffPolicy policy;
  policy.initial_ms = 10.0;
  policy.multiplier = 2.0;
  const fault::RetryResult result =
      fault::retry_with_backoff(policy, [](int attempt) {
        return attempt < 3 ? common::Status::Unavailable("dropped")
                           : common::Status::Ok();
      });
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.attempts, 3);
  EXPECT_DOUBLE_EQ(result.backoff_ms, 10.0 + 20.0);
}

TEST(Retry, NonRetryableErrorStopsImmediately) {
  const fault::BackoffPolicy policy;
  const fault::RetryResult result = fault::retry_with_backoff(
      policy, [](int) { return common::Status::NotFound(); });
  EXPECT_EQ(result.status.code(), common::StatusCode::kNotFound);
  EXPECT_EQ(result.attempts, 1);
}

TEST(Retry, ExhaustedBudgetKeepsLastError) {
  fault::BackoffPolicy policy;
  policy.max_attempts = 3;
  const fault::RetryResult result = fault::retry_with_backoff(
      policy, [](int) { return common::Status::Unavailable(); });
  EXPECT_EQ(result.status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(result.attempts, 3);
}

TEST(Retry, TimeoutBeatsTheRetryBudget) {
  fault::BackoffPolicy policy;
  policy.initial_ms = 40.0;
  policy.multiplier = 2.0;
  policy.max_attempts = 10;
  const fault::RetryResult result = fault::retry_with_backoff(
      policy, [](int) { return common::Status::Unavailable(); },
      /*timeout_ms=*/50.0);
  // Attempt 2 waits 40 (fits in 50); the wait before attempt 3 would push
  // the accumulated backoff to 120 > 50, so the deadline wins.
  EXPECT_EQ(result.status.code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_DOUBLE_EQ(result.backoff_ms, 40.0);
}

TEST(Retry, RetriedRunsReplayBitForBit) {
  fault::BackoffPolicy policy;
  policy.jitter = 0.5;
  auto run = [&policy] {
    common::Rng rng(1234);
    return fault::retry_with_backoff(
        policy,
        [](int attempt) {
          return attempt < 4 ? common::Status::Unavailable()
                             : common::Status::Ok();
        },
        0.0, &rng);
  };
  const fault::RetryResult a = run();
  const fault::RetryResult b = run();
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_DOUBLE_EQ(a.backoff_ms, b.backoff_ms);
}

// ----------------------------------------------------------- signaling --

TEST(SignalingExchange, CleanLinkSucceedsFirstTryAtCleanEnergy) {
  const core::SignalingLink link;
  const auto outcome = link.exchange(nullptr, /*device=*/3, /*slot=*/5,
                                     /*chunk_count=*/30);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->uplink_attempts, 1);
  EXPECT_EQ(outcome->downlink_attempts, 1);
  EXPECT_EQ(outcome->retries(), 0);
  EXPECT_DOUBLE_EQ(outcome->backoff_ms, 0.0);
  const double clean =
      core::SignalingCostModel{}.report_energy(link.schema(), 30).value;
  EXPECT_DOUBLE_EQ(outcome->energy.value, clean);
}

TEST(SignalingExchange, DropRetrySuccessCostsExtraEnergy) {
  const fault::FaultInjector injector(
      fault::FaultInjector::Config::uniform(21, 0.35));
  const core::SignalingLink link;
  const double clean =
      core::SignalingCostModel{}.report_energy(link.schema(), 30).value;
  bool saw_retried_success = false;
  for (std::uint64_t device = 0; device < 100 && !saw_retried_success;
       ++device) {
    const auto outcome = link.exchange(&injector, device, /*slot=*/0, 30);
    if (outcome.ok() && outcome->retries() > 0) {
      saw_retried_success = true;
      EXPECT_GT(outcome->backoff_ms, 0.0);
      EXPECT_GT(outcome->energy.value, clean);
    }
  }
  EXPECT_TRUE(saw_retried_success)
      << "35% loss over 100 devices must retry at least one exchange";
}

TEST(SignalingExchange, DeterministicUnderFaults) {
  const auto config = fault::FaultInjector::Config::uniform(22, 0.3, 0.2);
  const fault::FaultInjector a(config);
  const fault::FaultInjector b(config);
  const core::SignalingLink link;
  for (std::uint64_t device = 0; device < 40; ++device) {
    const auto oa = link.exchange(&a, device, /*slot=*/7, 20);
    const auto ob = link.exchange(&b, device, /*slot=*/7, 20);
    ASSERT_EQ(oa.ok(), ob.ok()) << device;
    if (!oa.ok()) continue;
    EXPECT_EQ(oa->uplink_attempts, ob->uplink_attempts);
    EXPECT_EQ(oa->downlink_attempts, ob->downlink_attempts);
    EXPECT_DOUBLE_EQ(oa->energy.value, ob->energy.value);
    EXPECT_DOUBLE_EQ(oa->delay_ms, ob->delay_ms);
  }
}

TEST(SignalingExchange, TotalLossExhaustsRetriesAsUnavailable) {
  const fault::FaultInjector injector(
      fault::FaultInjector::Config::uniform(23, 1.0));
  const core::SignalingLink link;
  const auto outcome = link.exchange(&injector, 1, 1, 10);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), common::StatusCode::kUnavailable);
}

TEST(SignalingExchange, TightTimeoutReportsDeadlineExceeded) {
  const fault::FaultInjector injector(
      fault::FaultInjector::Config::uniform(24, 1.0));
  const core::SignalingLink link;
  // The default backoff waits 10 ms before attempt 2; a 5 ms budget cannot
  // afford a single retry.
  const auto outcome = link.exchange(&injector, 1, 1, 10, /*timeout_ms=*/5.0);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), common::StatusCode::kDeadlineExceeded);
}

// -------------------------------------------------------- network link --

TEST(NetworkFaults, NullAndDisabledInjectorsMatchThePlainDraw) {
  const fault::FaultInjector disabled;
  streaming::ThroughputModel plain, with_null, with_disabled;
  common::Rng rng_plain(404), rng_null(404), rng_disabled(404);
  for (std::uint64_t k = 0; k < 200; ++k) {
    const double expected = plain.sample_mbps(rng_plain);
    EXPECT_EQ(with_null.sample_mbps(rng_null, nullptr, 7, k), expected);
    EXPECT_EQ(with_disabled.sample_mbps(rng_disabled, &disabled, 7, k),
              expected);
  }
  EXPECT_EQ(disabled.stats().injected(), 0);
}

TEST(NetworkFaults, DropIsARadioOutageInTheBadState) {
  fault::FaultInjector::Config config;
  config.seed = 99;
  config.site(fault::FaultSite::kNetworkLink).drop = 1.0;
  const fault::FaultInjector injector(config);
  streaming::ThroughputModel link;
  common::Rng rng(1);
  EXPECT_DOUBLE_EQ(link.sample_mbps(rng, &injector, 3, 0), 0.01);
  EXPECT_FALSE(link.in_good_state());
}

TEST(NetworkFaults, CorruptionOnlyShrinksTheDrawnRate) {
  fault::FaultInjector::Config config;
  config.seed = 99;
  config.site(fault::FaultSite::kNetworkLink).corrupt = 1.0;
  const fault::FaultInjector injector(config);
  streaming::ThroughputModel corrupted, plain;
  common::Rng rng_corrupted(5), rng_plain(5);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const double clean = plain.sample_mbps(rng_plain);
    const double mbps = corrupted.sample_mbps(rng_corrupted, &injector, 9, k);
    EXPECT_GT(mbps, 0.0);
    EXPECT_LE(mbps, clean);
  }
}

TEST(NetworkFaults, SessionUnderLinkFaultsIsDeterministicAndNullIsClean) {
  fault::FaultInjector::Config config;
  config.seed = 31;
  config.site(fault::FaultSite::kNetworkLink).drop = 0.4;
  const fault::FaultInjector injector(config);
  const streaming::StreamingSession session;

  const auto run_session = [&](const fault::FaultInjector* faults) {
    streaming::ThroughputModel link;
    streaming::RateBasedAbr abr;
    common::Rng rng(2026);
    return session.run(link, abr, rng, faults, /*fault_key=*/1);
  };

  const streaming::SessionQoe clean = run_session(nullptr);
  {
    // The 3-arg overload and a null injector are the same run.
    streaming::ThroughputModel link;
    streaming::RateBasedAbr abr;
    common::Rng rng(2026);
    const streaming::SessionQoe plain = session.run(link, abr, rng);
    EXPECT_EQ(plain.mean_bitrate_mbps, clean.mean_bitrate_mbps);
    EXPECT_EQ(plain.rebuffer_time_s, clean.rebuffer_time_s);
    EXPECT_EQ(plain.startup_delay_s, clean.startup_delay_s);
    EXPECT_EQ(plain.bitrate_switches, clean.bitrate_switches);
  }

  const streaming::SessionQoe faulted = run_session(&injector);
  const streaming::SessionQoe replay = run_session(&injector);
  EXPECT_EQ(faulted.mean_bitrate_mbps, replay.mean_bitrate_mbps);
  EXPECT_EQ(faulted.rebuffer_time_s, replay.rebuffer_time_s);
  EXPECT_EQ(faulted.rebuffer_events, replay.rebuffer_events);
  EXPECT_EQ(faulted.startup_delay_s, replay.startup_delay_s);
  // 40% outages must hurt: more freezing or a lower sustained bitrate.
  EXPECT_TRUE(faulted.rebuffer_time_s > clean.rebuffer_time_s ||
              faulted.mean_bitrate_mbps < clean.mean_bitrate_mbps);
}

}  // namespace
}  // namespace lpvs

// ----------------------------------------------------- degradation ladder --

namespace lpvs::core {
namespace {

const survey::AnxietyModel& ladder_anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

SlotProblem ladder_problem(std::uint64_t seed, std::size_t devices = 24) {
  common::Rng rng(seed);
  SlotProblem problem;
  double total_compute = 0.0;
  for (std::size_t n = 0; n < devices; ++n) {
    DeviceSlotInput device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(n)};
    const std::size_t chunks =
        10 + static_cast<std::size_t>(rng.uniform_int(0, 10));
    device.power_rates_mw.resize(chunks);
    device.chunk_durations_s.assign(chunks, 10.0);
    for (std::size_t k = 0; k < chunks; ++k) {
      device.power_rates_mw[k] = rng.uniform(400.0, 1100.0);
    }
    device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    device.initial_energy_mwh =
        device.battery_capacity_mwh * rng.uniform(0.1, 0.9);
    device.gamma = rng.uniform(0.15, 0.45);
    device.compute_cost = rng.uniform(0.3, 1.0);
    device.storage_cost = rng.uniform(30.0, 120.0);
    total_compute += device.compute_cost;
    problem.devices.push_back(std::move(device));
  }
  problem.compute_capacity = total_compute * 0.4;
  problem.storage_capacity = 1e9;
  return problem;
}

bool ladder_feasible(const SlotProblem& problem, const Schedule& s) {
  double compute = 0.0;
  double storage = 0.0;
  for (std::size_t n = 0; n < problem.devices.size(); ++n) {
    if (!s.x[n]) continue;
    if (!eligible_for_transform(problem.devices[n])) return false;
    compute += problem.devices[n].compute_cost;
    storage += problem.devices[n].storage_cost;
  }
  return compute <= problem.compute_capacity + 1e-6 &&
         storage <= problem.storage_capacity + 1e-6;
}

TEST(DegradationLadder, RungNamesAreStable) {
  EXPECT_STREQ(degradation_rung_name(DegradationRung::kFullSolve),
               "full_solve");
  EXPECT_STREQ(degradation_rung_name(DegradationRung::kWarmRepair),
               "warm_repair");
  EXPECT_STREQ(degradation_rung_name(DegradationRung::kReplayPrevious),
               "replay_previous");
  EXPECT_STREQ(degradation_rung_name(DegradationRung::kPassthrough),
               "passthrough");
}

TEST(DegradationLadder, DefaultContextStaysOnFullSolve) {
  const SlotProblem problem = ladder_problem(1);
  const Schedule s =
      LpvsScheduler().schedule(problem, RunContext(ladder_anxiety()));
  EXPECT_EQ(s.rung, DegradationRung::kFullSolve);
  EXPECT_TRUE(ladder_feasible(problem, s));
}

TEST(DegradationLadder, ForcedPassthroughSelectsNothing) {
  const SlotProblem problem = ladder_problem(2);
  const RunContext context = RunContext(ladder_anxiety())
                                 .with_deadline(SlotDeadline{0.0, 3});
  const Schedule s = LpvsScheduler().schedule(problem, context);
  EXPECT_EQ(s.rung, DegradationRung::kPassthrough);
  EXPECT_EQ(s.selected_count(), 0);
  EXPECT_TRUE(ladder_feasible(problem, s));
}

TEST(DegradationLadder, ForcedReplayWithoutHistoryFallsToPassthrough) {
  const SlotProblem problem = ladder_problem(3);
  solver::SolveCache cache;
  const RunContext context = RunContext(ladder_anxiety())
                                 .with_solve_cache(&cache, /*key=*/77)
                                 .with_deadline(SlotDeadline{0.0, 2});
  const Schedule s = LpvsScheduler().schedule(problem, context);
  EXPECT_EQ(s.rung, DegradationRung::kPassthrough);
  EXPECT_EQ(s.selected_count(), 0);
}

TEST(DegradationLadder, ForcedReplayReusesPreviousAssignment) {
  const SlotProblem problem = ladder_problem(4);
  solver::SolveCache cache;
  const LpvsScheduler scheduler;
  const RunContext base =
      RunContext(ladder_anxiety()).with_solve_cache(&cache, /*key=*/5);
  const Schedule full = scheduler.schedule(problem, base);
  ASSERT_EQ(full.rung, DegradationRung::kFullSolve);
  const Schedule replay = scheduler.schedule(
      problem, base.with_deadline(SlotDeadline{0.0, 2}));
  EXPECT_EQ(replay.rung, DegradationRung::kReplayPrevious);
  EXPECT_EQ(replay.x, full.x);
  EXPECT_TRUE(ladder_feasible(problem, replay));
}

TEST(DegradationLadder, WarmRepairIsFeasibleWithAndWithoutHistory) {
  const SlotProblem problem = ladder_problem(5);
  const LpvsScheduler scheduler;
  // Without history: repair starts from nothing and greedy-packs.
  const Schedule cold = scheduler.schedule(
      problem,
      RunContext(ladder_anxiety()).with_deadline(SlotDeadline{0.0, 1}));
  EXPECT_EQ(cold.rung, DegradationRung::kWarmRepair);
  EXPECT_TRUE(ladder_feasible(problem, cold));
  // With history from a previous full solve.
  solver::SolveCache cache;
  const RunContext cached =
      RunContext(ladder_anxiety()).with_solve_cache(&cache, 9);
  (void)scheduler.schedule(problem, cached);
  const Schedule warm = scheduler.schedule(
      problem, cached.with_deadline(SlotDeadline{0.0, 1}));
  EXPECT_EQ(warm.rung, DegradationRung::kWarmRepair);
  EXPECT_TRUE(ladder_feasible(problem, warm));
}

TEST(DegradationLadder, DegradedAssignmentWarmStartsTheNextFullSolve) {
  // A degraded rung's selection is the stream's last assignment: the next
  // full solve of the same problem warm-starts from it and reaches the
  // cold full solve's optimum.  Phase-2 is off so the rung's x is exactly
  // what the rung stored.
  const SlotProblem problem = ladder_problem(11);
  const LpvsScheduler scheduler;
  solver::SolveCache cache;
  obs::MetricsRegistry registry;
  const RunContext cached = RunContext(ladder_anxiety(), &registry)
                                .with_solve_cache(&cache, /*key=*/12);
  const Schedule repaired = scheduler.schedule_phase1_only(
      problem, cached.with_deadline(SlotDeadline{0.0, 1}));
  ASSERT_EQ(repaired.rung, DegradationRung::kWarmRepair);
  EXPECT_EQ(cache.previous_assignment(12), repaired.x);

  const Schedule full = scheduler.schedule_phase1_only(problem, cached);
  ASSERT_EQ(full.rung, DegradationRung::kFullSolve);
  EXPECT_EQ(registry.counter("lpvs_solver_warm_starts_total").value(), 1);
  EXPECT_EQ(registry.counter("lpvs_solver_cold_starts_total").value(), 0);
  const Schedule cold = scheduler.schedule_phase1_only(
      problem, RunContext(ladder_anxiety()));
  const solver::BinaryProgram program = phase1_program(problem);
  EXPECT_NEAR(program.value(full.x), program.value(cold.x), 1e-9);
  EXPECT_EQ(full.objective, cold.objective);
}

TEST(DegradationLadder, TinyDeadlineBudgetSkipsTheFullSolve) {
  const SlotProblem problem = ladder_problem(6);
  // 0.05 ms * 100 nodes/ms = 5 nodes < min_full_solve_nodes (16).
  const Schedule s = LpvsScheduler().schedule(
      problem,
      RunContext(ladder_anxiety()).with_deadline(SlotDeadline{0.05, -1}));
  EXPECT_EQ(s.rung, DegradationRung::kWarmRepair);
  EXPECT_TRUE(ladder_feasible(problem, s));
}

TEST(DegradationLadder, GenerousDeadlineKeepsTheFullSolve) {
  const SlotProblem problem = ladder_problem(7);
  const Schedule s = LpvsScheduler().schedule(
      problem,
      RunContext(ladder_anxiety()).with_deadline(SlotDeadline{500.0, -1}));
  EXPECT_EQ(s.rung, DegradationRung::kFullSolve);
}

TEST(DegradationLadder, InjectedBudgetOverrunsWalkTheLadder) {
  fault::FaultInjector::Config config;
  config.seed = 9;
  config.site(fault::FaultSite::kSolverBudget).drop = 1.0;
  const fault::FaultInjector injector(config);
  const SlotProblem problem = ladder_problem(8);
  const Schedule s = LpvsScheduler().schedule(
      problem, RunContext(ladder_anxiety()).with_fault_injector(&injector));
  // Every rung's budget check drops, so the ladder bottoms out.
  EXPECT_EQ(s.rung, DegradationRung::kPassthrough);
  EXPECT_EQ(s.selected_count(), 0);
}

TEST(DegradationLadder, RungCountersLandInTheRegistry) {
  obs::MetricsRegistry registry;
  const SlotProblem problem = ladder_problem(10);
  const RunContext context = RunContext(ladder_anxiety(), &registry);
  const LpvsScheduler scheduler;
  (void)scheduler.schedule(problem, context);
  (void)scheduler.schedule(problem,
                           context.with_deadline(SlotDeadline{0.0, 3}));
  EXPECT_EQ(registry.counter("lpvs_scheduler_rung_full_solve_total").value(),
            1);
  EXPECT_EQ(registry.counter("lpvs_scheduler_rung_passthrough_total").value(),
            1);
}

}  // namespace
}  // namespace lpvs::core

// ------------------------------------------ disabled-injector identity --

namespace lpvs::emu {
namespace {

EmulatorConfig identity_config() {
  EmulatorConfig config;
  config.group_size = 30;
  config.slots = 8;
  config.chunks_per_slot = 10;
  config.seed = 77;
  return config;
}

void expect_metrics_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.total_energy_mwh, b.total_energy_mwh);
  EXPECT_EQ(a.mean_anxiety, b.mean_anxiety);
  EXPECT_EQ(a.total_selected, b.total_selected);
  EXPECT_EQ(a.slots_run, b.slots_run);
  EXPECT_EQ(a.anxiety_samples, b.anxiety_samples);
  EXPECT_EQ(a.tpv_minutes, b.tpv_minutes);
  EXPECT_EQ(a.start_fractions, b.start_fractions);
  EXPECT_EQ(a.final_fractions, b.final_fractions);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.last_gamma_estimate, b.last_gamma_estimate);
  EXPECT_EQ(a.mean_true_gamma, b.mean_true_gamma);
}

TEST(FaultIdentity, NullAndDisabledInjectorsAreBitIdentical) {
  const core::LpvsScheduler scheduler;
  const survey::AnxietyModel model = survey::AnxietyModel::reference();

  Emulator plain(identity_config(), scheduler, core::RunContext(model));
  const RunMetrics without = plain.run();

  // Attached but all-zero probabilities: the injector must be invisible.
  const fault::FaultInjector disabled;
  Emulator with_disabled(
      identity_config(), scheduler,
      core::RunContext(model).with_fault_injector(&disabled));
  const RunMetrics with = with_disabled.run();

  expect_metrics_identical(without, with);
}

TEST(FaultIdentity, ActiveInjectorChangesTheRun) {
  const core::LpvsScheduler scheduler;
  const survey::AnxietyModel model = survey::AnxietyModel::reference();

  Emulator plain(identity_config(), scheduler, core::RunContext(model));
  const RunMetrics clean = plain.run();

  const fault::FaultInjector chaos(
      fault::FaultInjector::Config::uniform(13, 0.2, 0.1, 0.1));
  Emulator faulted(identity_config(), scheduler,
                   core::RunContext(model).with_fault_injector(&chaos));
  const RunMetrics lossy = faulted.run();

  EXPECT_NE(clean.total_energy_mwh, lossy.total_energy_mwh);
  // The world itself (device fleet) is still the paired one.
  EXPECT_EQ(clean.start_fractions, lossy.start_fractions);
}

TEST(FaultIdentity, FaultedRunsAreDeterministic) {
  const core::LpvsScheduler scheduler;
  const survey::AnxietyModel model = survey::AnxietyModel::reference();
  const fault::FaultInjector chaos(
      fault::FaultInjector::Config::uniform(14, 0.15, 0.1, 0.05));
  Emulator a(identity_config(), scheduler,
             core::RunContext(model).with_fault_injector(&chaos));
  Emulator b(identity_config(), scheduler,
             core::RunContext(model).with_fault_injector(&chaos));
  expect_metrics_identical(a.run(), b.run());
}

}  // namespace
}  // namespace lpvs::emu
