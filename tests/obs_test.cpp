// Observability layer tests: registry correctness under concurrent
// ThreadPool writers, histogram quantile sanity, the exposition-format
// golden, JSON export, the bounded event trace, and the load-bearing
// contract — attaching observability must not change what a run computes
// (bit-identical RunMetrics for the same seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/common/thread_pool.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/emu/emulator.hpp"
#include "lpvs/emu/metrics_io.hpp"
#include "lpvs/emu/replay.hpp"
#include "lpvs/obs/event_trace.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/survey/lba_curve.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs {
namespace {

using obs::EventKind;
using obs::EventTrace;
using obs::MetricsRegistry;

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

// ------------------------------------------------------------ registry --

TEST(ObsRegistry, CountersGaugesAndReRegistration) {
  MetricsRegistry registry;
  obs::Counter& c = registry.counter("lpvs_test_total", "help");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  // Same name returns the same metric, not a fresh one.
  EXPECT_EQ(&registry.counter("lpvs_test_total"), &c);

  obs::Gauge& g = registry.gauge("lpvs_test_depth");
  g.set(2.0);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(&registry.gauge("lpvs_test_depth"), &g);
}

TEST(ObsRegistry, ConcurrentWritersAreLossless) {
  MetricsRegistry registry;
  obs::Counter& counter = registry.counter("lpvs_concurrent_total");
  obs::Histogram& hist = registry.histogram(
      "lpvs_concurrent_hist", MetricsRegistry::linear_buckets(0.0, 8.0, 16));

  constexpr std::size_t kTasks = 64;
  constexpr int kPerTask = 1000;
  common::ThreadPool pool(8);
  common::parallel_for(pool, kTasks, [&](std::size_t task) {
    for (int i = 0; i < kPerTask; ++i) {
      counter.add(1);
      hist.observe(static_cast<double>((task + i) % 100));
      // Registration from workers must also be safe.
      registry.counter("lpvs_concurrent_registered_total").add(1);
    }
  });

  EXPECT_EQ(counter.value(), static_cast<long>(kTasks) * kPerTask);
  EXPECT_EQ(hist.count(), static_cast<long>(kTasks) * kPerTask);
  EXPECT_EQ(registry.counter("lpvs_concurrent_registered_total").value(),
            static_cast<long>(kTasks) * kPerTask);
  long bucket_total = 0;
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (long count : snap.histograms[0].bucket_counts) bucket_total += count;
  EXPECT_EQ(bucket_total, hist.count());
}

// ----------------------------------------------------------- histogram --

TEST(ObsHistogram, QuantileSanity) {
  obs::Histogram hist(MetricsRegistry::linear_buckets(10.0, 10.0, 10));
  for (int v = 1; v <= 100; ++v) hist.observe(static_cast<double>(v));
  EXPECT_EQ(hist.count(), 100);
  EXPECT_DOUBLE_EQ(hist.sum(), 5050.0);
  // Uniform 1..100: interpolated quantiles land within one bucket width.
  EXPECT_NEAR(hist.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(hist.quantile(0.95), 95.0, 10.0);
  EXPECT_LE(hist.quantile(0.25), hist.quantile(0.75));
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 100.0);
}

TEST(ObsHistogram, OverflowAttributedToLastBound) {
  obs::Histogram hist({1.0, 2.0});
  hist.observe(1000.0);
  hist.observe(2000.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 2.0);
  EXPECT_EQ(hist.bucket_count(2), 2);  // overflow bucket
}

TEST(ObsHistogram, EmptyIsZeroAndQuantileArgumentIsClamped) {
  obs::Histogram hist({10.0, 20.0});
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
  hist.observe(5.0);
  hist.observe(15.0);
  EXPECT_DOUBLE_EQ(hist.quantile(-1.0), hist.quantile(0.0));
  EXPECT_DOUBLE_EQ(hist.quantile(2.0), hist.quantile(1.0));
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 20.0);
  // Rank 1 of 2 is the whole first bucket: its upper bound.
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 10.0);
  EXPECT_EQ(hist.bucket_count(0), 1);
  EXPECT_EQ(hist.bucket_count(1), 1);
  EXPECT_EQ(hist.bucket_count(2), 0);
}

TEST(ObsHistogram, BucketLaddersAreAscending) {
  const std::vector<double> time = MetricsRegistry::time_buckets_ms();
  ASSERT_FALSE(time.empty());
  EXPECT_TRUE(std::is_sorted(time.begin(), time.end()));
  EXPECT_EQ(std::adjacent_find(time.begin(), time.end()), time.end());
  EXPECT_GT(time.front(), 0.0);
  EXPECT_GE(time.back(), 1000.0);  // a slot's solve budget fits below it

  EXPECT_EQ(MetricsRegistry::linear_buckets(0.5, 0.25, 4),
            (std::vector<double>{0.5, 0.75, 1.0, 1.25}));
  EXPECT_TRUE(MetricsRegistry::linear_buckets(1.0, 1.0, 0).empty());
}

TEST(ObsHistogram, ReRegistrationKeepsTheFirstBounds) {
  MetricsRegistry registry;
  obs::Histogram& first = registry.histogram("lpvs_test_ms", {1.0, 2.0});
  obs::Histogram& again = registry.histogram("lpvs_test_ms", {5.0});
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsGauge, ConcurrentAddsAreLossless) {
  obs::Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(1.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Small integers are exact in a double, so any lost update shows.
  EXPECT_EQ(gauge.value(), static_cast<double>(kThreads * kPerThread));
}

// ------------------------------------------------------------ snapshot --

TEST(ObsSnapshot, TypedLookupsReturnValuesOrFallbacks) {
  MetricsRegistry registry;
  registry.counter("lpvs_test_total").add(7);
  registry.gauge("lpvs_test_level").set(0.25);
  obs::Histogram& hist =
      registry.histogram("lpvs_test_ms", MetricsRegistry::linear_buckets(
                                             1.0, 1.0, 10));
  for (int v = 1; v <= 10; ++v) hist.observe(static_cast<double>(v) - 0.5);
  const obs::MetricsSnapshot snap = registry.snapshot_all();

  ASSERT_NE(snap.counter("lpvs_test_total"), nullptr);
  EXPECT_EQ(snap.counter_value("lpvs_test_total"), 7);
  EXPECT_DOUBLE_EQ(snap.gauge_value("lpvs_test_level"), 0.25);
  EXPECT_DOUBLE_EQ(snap.histogram_quantile("lpvs_test_ms", 0.5),
                   hist.quantile(0.5));

  EXPECT_EQ(snap.counter("lpvs_absent_total"), nullptr);
  EXPECT_EQ(snap.gauge("lpvs_absent_level"), nullptr);
  EXPECT_EQ(snap.histogram("lpvs_absent_ms"), nullptr);
  EXPECT_EQ(snap.counter_value("lpvs_absent_total", -1), -1);
  EXPECT_DOUBLE_EQ(snap.gauge_value("lpvs_absent_level", 9.5), 9.5);
  EXPECT_DOUBLE_EQ(snap.histogram_quantile("lpvs_absent_ms", 0.5, -2.0),
                   -2.0);
  // Lookups are typed: a counter's name does not resolve as a gauge.
  EXPECT_EQ(snap.gauge("lpvs_test_total"), nullptr);
}

TEST(ObsSnapshot, SampleQuantilesMatchTheLiveHistogram) {
  MetricsRegistry registry;
  obs::Histogram& hist =
      registry.histogram("lpvs_test_ms", MetricsRegistry::time_buckets_ms());
  common::Rng rng(5);
  for (int i = 0; i < 500; ++i) hist.observe(rng.exponential(0.2));
  const obs::MetricsSnapshot snap = registry.snapshot_all();
  const obs::HistogramSample* sample = snap.histogram("lpvs_test_ms");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, hist.count());
  EXPECT_EQ(sample->sum, hist.sum());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(sample->quantile(q), hist.quantile(q)) << "q " << q;
  }
}

TEST(ObsSnapshot, SequenceIsMonotonePerRegistry) {
  MetricsRegistry a;
  MetricsRegistry b;
  EXPECT_EQ(a.snapshot_all().sequence, 1u);
  EXPECT_EQ(a.snapshot().sequence, 2u);
  EXPECT_EQ(b.snapshot_all().sequence, 1u);  // independent counters
  (void)a.exposition();                      // renders a fresh snapshot too
  EXPECT_EQ(a.snapshot_all().sequence, 4u);
}

// --------------------------------------------------------------- timer --

TEST(ObsScopedTimer, NullSinkIsInert) {
  const obs::ScopedTimer timer(nullptr);
  EXPECT_EQ(timer.elapsed_ms(), 0.0);
}

TEST(ObsScopedTimer, ObservesOnceOnScopeExit) {
  obs::Histogram hist(MetricsRegistry::time_buckets_ms());
  {
    const obs::ScopedTimer timer(&hist);
    const double first = timer.elapsed_ms();
    EXPECT_GE(first, 0.0);
    EXPECT_GE(timer.elapsed_ms(), first);  // steady clock
    EXPECT_EQ(hist.count(), 0);            // nothing until destruction
  }
  EXPECT_EQ(hist.count(), 1);
  EXPECT_GE(hist.sum(), 0.0);
}

// ---------------------------------------------------------- exposition --

TEST(ObsExposition, GoldenFormat) {
  MetricsRegistry registry;
  registry.counter("lpvs_test_events_total", "Events seen").add(3);
  registry.gauge("lpvs_test_depth").set(2.5);
  obs::Histogram& hist =
      registry.histogram("lpvs_test_ms", {1.0, 10.0}, "Latency");
  hist.observe(0.5);
  hist.observe(5.0);
  hist.observe(99.0);

  const std::string expected =
      "# HELP lpvs_test_events_total Events seen\n"
      "# TYPE lpvs_test_events_total counter\n"
      "lpvs_test_events_total 3\n"
      "# TYPE lpvs_test_depth gauge\n"
      "lpvs_test_depth 2.5\n"
      "# HELP lpvs_test_ms Latency\n"
      "# TYPE lpvs_test_ms histogram\n"
      "lpvs_test_ms_bucket{le=\"1\"} 1\n"
      "lpvs_test_ms_bucket{le=\"10\"} 2\n"
      "lpvs_test_ms_bucket{le=\"+Inf\"} 3\n"
      "lpvs_test_ms_sum 104.5\n"
      "lpvs_test_ms_count 3\n";
  EXPECT_EQ(registry.exposition(), expected);
}

TEST(ObsExposition, JsonSnapshotSharesSerializationPath) {
  MetricsRegistry registry;
  registry.counter("lpvs_j_total").add(7);
  registry.histogram("lpvs_j_ms", {1.0}).observe(0.5);
  // Callable via the emu re-export alongside the RunMetrics overloads.
  const std::string dump = emu::to_json(registry.snapshot()).dump();
  EXPECT_NE(dump.find("\"lpvs_j_total\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"histograms\""), std::string::npos);
  EXPECT_NE(dump.find("\"p95\""), std::string::npos);
}

// ---------------------------------------------------------- event trace --

TEST(ObsEventTrace, BoundedAndCountsDrops) {
  EventTrace trace(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    trace.record({EventKind::kGiveUp, i, i, {{"battery_percent", 10.0}}});
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(ObsEventTrace, KindNamesAreDistinctLowercaseLabels) {
  std::set<std::string> seen;
  for (int k = 0; k <= static_cast<int>(EventKind::kDegradation); ++k) {
    const std::string name = obs::event_kind_name(static_cast<EventKind>(k));
    ASSERT_FALSE(name.empty()) << "kind " << k;
    // snake_case: a lowercase letter first, then lowercase, digits or _.
    EXPECT_TRUE(std::islower(static_cast<unsigned char>(name[0]))) << name;
    for (char c : name) {
      const auto u = static_cast<unsigned char>(c);
      EXPECT_TRUE(std::islower(u) || std::isdigit(u) || c == '_') << name;
    }
    EXPECT_TRUE(seen.insert(name).second) << "duplicate label " << name;
  }
}

TEST(ObsEventTrace, JsonlRecordsAreStructured) {
  EventTrace trace;
  trace.record({EventKind::kScheduleSolve, 4, -1, {{"ilp_nodes", 12.0}}});
  trace.record({EventKind::kCacheAccess, 4, 2, {{"chunks_available", 30.0}}});
  const std::string jsonl = trace.to_jsonl();
  EXPECT_NE(jsonl.find("{\"kind\":\"schedule_solve\",\"slot\":4,\"device\":-1,"
                       "\"ilp_nodes\":12}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"cache_access\""), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

// ------------------------------------------------- determinism contract --

emu::EmulatorConfig small_config() {
  emu::EmulatorConfig config;
  config.group_size = 12;
  config.slots = 6;
  config.chunks_per_slot = 8;
  config.seed = 2024;
  return config;
}

/// Everything except mean_scheduler_ms, which is wall-clock by definition.
void expect_identical(const emu::RunMetrics& a, const emu::RunMetrics& b) {
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

TEST(ObsDeterminism, ObservedRunIsBitIdenticalToUnobserved) {
  const core::LpvsScheduler scheduler;
  const emu::EmulatorConfig config = small_config();

  emu::Emulator plain(config, scheduler, core::RunContext(anxiety()));
  const emu::RunMetrics off = plain.run();

  MetricsRegistry registry;
  EventTrace trace;
  emu::Emulator observed(config, scheduler,
                         core::RunContext(anxiety(), &registry, &trace));
  const emu::RunMetrics on = observed.run();

  expect_identical(on, off);
  // ...and the instrumentation actually fired.
  EXPECT_EQ(registry.counter("lpvs_emu_slots_total").value(), on.slots_run);
  EXPECT_EQ(registry.counter("lpvs_scheduler_solves_total").value(),
            on.slots_run);
  EXPECT_GT(trace.size(), 0u);
}

TEST(ObsDeterminism, BareContextMatchesCapabilityFreeRun) {
  // A RunContext carrying nothing but the anxiety model is the scheduler's
  // minimal input; binding capabilities later (with_slot here) must not
  // change the schedule.
  const core::LpvsScheduler scheduler;

  core::SlotProblem problem;
  for (int n = 0; n < 10; ++n) {
    core::DeviceSlotInput device;
    device.id = common::DeviceId{static_cast<std::uint32_t>(n)};
    device.power_rates_mw.assign(8, 900.0 + 10.0 * n);
    device.chunk_durations_s.assign(8, 10.0);
    device.initial_energy_mwh = 600.0 + 50.0 * n;
    device.battery_capacity_mwh = 3000.0;
    problem.devices.push_back(std::move(device));
  }
  problem.compute_capacity = 2.0;

  const core::Schedule bare =
      scheduler.schedule(problem, core::RunContext(anxiety()));
  const core::Schedule with_slot =
      scheduler.schedule(problem, core::RunContext(anxiety()).with_slot(3));
  EXPECT_EQ(bare.x, with_slot.x);
  EXPECT_EQ(bare.objective, with_slot.objective);
}

TEST(ObsDeterminism, ObservedThreadedReplayMatchesPlainSerial) {
  const trace::Trace twitch = trace::TwitchLikeGenerator().generate(7);
  const core::LpvsScheduler scheduler;
  emu::ReplayConfig config;
  config.min_viewers = 20;
  config.max_clusters = 3;
  config.max_slots = 4;

  const emu::ReplayReport plain =
      replay_city(twitch, scheduler, core::RunContext(anxiety()), config);

  MetricsRegistry registry;
  config.threads = 4;
  const emu::ReplayReport observed = replay_city(
      twitch, scheduler, core::RunContext(anxiety(), &registry), config);

  EXPECT_EQ(plain.energy_with_mwh, observed.energy_with_mwh);
  EXPECT_EQ(plain.energy_without_mwh, observed.energy_without_mwh);
  EXPECT_EQ(plain.total_devices, observed.total_devices);
  ASSERT_EQ(plain.clusters.size(), observed.clusters.size());
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_FALSE(snap.histograms.empty());
  EXPECT_EQ(registry.counter("lpvs_replay_clusters_total").value(),
            static_cast<long>(observed.clusters.size()));
}

// ------------------------------------------------------- ClusterParams --

TEST(ObsClusterParams, SharedKnobsFlowFromReplayToEmulator) {
  emu::ReplayConfig replay;
  replay.compute_capacity = 7.0;
  replay.lambda = 123.0;
  replay.enable_giveup = false;
  replay.storage_capacity_mb = 512.0;

  emu::EmulatorConfig emulator;
  static_cast<emu::ClusterParams&>(emulator) = replay;
  EXPECT_EQ(emulator.compute_capacity, 7.0);
  EXPECT_EQ(emulator.lambda, 123.0);
  EXPECT_FALSE(emulator.enable_giveup);
  EXPECT_EQ(emulator.storage_capacity_mb, 512.0);
  // Defaults still line up where they should.
  EXPECT_EQ(emu::ReplayConfig().seed, 1u);
  EXPECT_EQ(emu::EmulatorConfig().seed, 42u);
}

}  // namespace
}  // namespace lpvs
