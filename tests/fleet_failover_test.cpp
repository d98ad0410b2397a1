// Checkpointed failover acceptance suite (label `fleet`).
//
// The headline contract: with fresh checkpoints (interval = 1), a federation
// run where servers crash (fault::FaultSite::kServerCrash) and fail over
// from fleet::Checkpoint replays a 200-slot trace segment *bit-for-bit*
// identically to the same run with no crashes at all — same state digest,
// same energy, same objective, same schedules.  Stale checkpoints lose the
// posterior updates since the snapshot (measured, not silently absorbed),
// and disabled checkpointing degrades every crash to a cold restart while
// staying deterministic and feasible.
#include <gtest/gtest.h>

#include <cstdint>

#include "lpvs/core/scheduler.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fleet/federation.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs {
namespace {

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

// Long-lived sessions so the 200-slot segment stays populated: median
// session ~11 hours at 5-minute slots, duration cap above the horizon.
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

fleet::FederationConfig failover_config() {
  fleet::FederationConfig config;
  config.servers = 3;
  config.users = 15;
  config.min_viewers = 1;
  config.start_slot = 20;
  config.slots = 200;
  config.chunks_per_slot = 6;
  config.initial_battery_mean = 0.85;
  config.initial_battery_std = 0.1;
  config.mobility_rate = 0.0;
  config.checkpoint_interval = 1;
  config.threads = 1;
  config.seed = 11;
  return config;
}

fault::FaultInjector::Config crash_only(std::uint64_t seed, double rate) {
  fault::FaultInjector::Config config;
  config.seed = seed;
  config.site(fault::FaultSite::kServerCrash).drop = rate;
  return config;
}

fleet::FederationReport run_federation(const fleet::FederationConfig& config,
                                       const core::RunContext& context) {
  const core::LpvsScheduler scheduler;
  fleet::Federation federation(config, long_trace(), scheduler, context);
  return federation.run();
}

// The crashed run goes at 1, 2 and 8 threads: above 1 the checkpoints it
// restores from were encoded on the federation's pool, one server per task.
TEST(FleetFailover, FreshCheckpointCrashReplayIsBitIdentical) {
  fleet::FederationConfig config = failover_config();
  const core::RunContext clean(anxiety());
  const fleet::FederationReport baseline = run_federation(config, clean);
  EXPECT_EQ(baseline.slots_run, 200);
  EXPECT_EQ(baseline.failovers, 0);

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    config.threads = threads;
    const fault::FaultInjector injector(crash_only(501, 0.05));
    const core::RunContext chaotic =
        core::RunContext(anxiety()).with_fault_injector(&injector);
    const fleet::FederationReport crashed = run_federation(config, chaotic);

    // The crashes really happened...
    EXPECT_GT(crashed.failovers, 0);
    // ...and every one restored from a fresh checkpoint, never the prior.
    long cold = 0;
    for (const fleet::ServerReport& row : crashed.servers) {
      cold += row.cold_restarts;
    }
    EXPECT_EQ(cold, 0);

    // Bit-for-bit: the whole 200-slot segment is unaffected by failover.
    EXPECT_EQ(crashed.state_digest, baseline.state_digest);
    EXPECT_EQ(crashed.slots_run, baseline.slots_run);
    EXPECT_EQ(crashed.total_energy_mwh, baseline.total_energy_mwh);
    EXPECT_EQ(crashed.total_objective, baseline.total_objective);
    EXPECT_EQ(crashed.total_selected, baseline.total_selected);
    EXPECT_EQ(crashed.mean_anxiety, baseline.mean_anxiety);
    EXPECT_EQ(crashed.anxiety_samples, baseline.anxiety_samples);
    EXPECT_EQ(crashed.handoffs, baseline.handoffs);
    ASSERT_EQ(crashed.servers.size(), baseline.servers.size());
    for (std::size_t s = 0; s < baseline.servers.size(); ++s) {
      EXPECT_EQ(crashed.servers[s].energy_mwh,
                baseline.servers[s].energy_mwh);
      EXPECT_EQ(crashed.servers[s].objective, baseline.servers[s].objective);
      EXPECT_EQ(crashed.servers[s].selected, baseline.servers[s].selected);
      EXPECT_EQ(crashed.servers[s].scheduled_users,
                baseline.servers[s].scheduled_users);
    }
    EXPECT_EQ(crashed.capacity_violations, 0);
  }
}

TEST(FleetFailover, FailoverCountsSurfaceInMetrics) {
  fleet::FederationConfig config = failover_config();
  config.slots = 60;
  const fault::FaultInjector injector(crash_only(77, 0.10));
  obs::MetricsRegistry registry;
  const core::RunContext context = core::RunContext(anxiety())
                                       .with_fault_injector(&injector)
                                       .with_metrics(&registry);
  const fleet::FederationReport report = run_federation(config, context);

  EXPECT_GT(report.failovers, 0);
  EXPECT_EQ(registry.counter("fleet_failover_total").value(),
            report.failovers);
  // Fresh checkpoints: restored posteriors are at most one slot stale.
  const obs::Histogram& staleness = registry.histogram(
      "fleet_posterior_staleness_slots",
      obs::MetricsRegistry::linear_buckets(0.0, 1.0, 17));
  EXPECT_GT(staleness.count(), 0);
  EXPECT_EQ(staleness.count(), staleness.bucket_count(0));
}

TEST(FleetFailover, StaleCheckpointsLoseSharpnessNotCorrectness) {
  fleet::FederationConfig config = failover_config();
  config.slots = 60;
  config.checkpoint_interval = 4;
  const fault::FaultInjector injector(crash_only(901, 0.10));
  obs::MetricsRegistry registry;
  const core::RunContext context = core::RunContext(anxiety())
                                       .with_fault_injector(&injector)
                                       .with_metrics(&registry);
  const fleet::FederationReport report = run_federation(config, context);

  EXPECT_GT(report.failovers, 0);
  EXPECT_EQ(report.capacity_violations, 0);
  EXPECT_EQ(report.slots_run, 60);

  // Some restores happened mid-interval: staleness above zero slots.
  const obs::Histogram& staleness = registry.histogram(
      "fleet_posterior_staleness_slots",
      obs::MetricsRegistry::linear_buckets(0.0, 1.0, 17));
  ASSERT_GT(staleness.count(), 0);
  EXPECT_LT(staleness.bucket_count(0), staleness.count());

  // Stale-restore runs are still a pure function of (trace, config, seed).
  const fault::FaultInjector replay_injector(crash_only(901, 0.10));
  const core::RunContext replay_context =
      core::RunContext(anxiety()).with_fault_injector(&replay_injector);
  const fleet::FederationReport replay =
      run_federation(config, replay_context);
  EXPECT_EQ(replay.state_digest, report.state_digest);
  EXPECT_EQ(replay.total_energy_mwh, report.total_energy_mwh);
  EXPECT_EQ(replay.failovers, report.failovers);
}

// A stale checkpoint can list users that were handed off after it was
// taken.  Failover restores only sessions whose user is still placed on
// the crashed server; restoring the others would leave two servers serving
// one user, with two serve threads draining one battery.  The run must
// therefore be one pure function of its inputs at any thread count.
TEST(FleetFailover, StaleCheckpointWithHandoffsIsThreadCountInvariant) {
  fleet::FederationConfig config = failover_config();
  config.checkpoint_interval = 4;
  config.mobility_rate = 0.05;
  const core::RunContext base(anxiety());

  config.threads = 1;
  const fault::FaultInjector serial_injector(crash_only(901, 0.10));
  const fleet::FederationReport serial =
      run_federation(config, base.with_fault_injector(&serial_injector));
  EXPECT_GT(serial.failovers, 0);
  EXPECT_GT(serial.handoffs, 0);

  config.threads = 2;
  for (int repeat = 0; repeat < 5; ++repeat) {
    const fault::FaultInjector injector(crash_only(901, 0.10));
    const fleet::FederationReport parallel =
        run_federation(config, base.with_fault_injector(&injector));
    EXPECT_EQ(parallel.state_digest, serial.state_digest)
        << "repeat " << repeat;
    EXPECT_EQ(parallel.total_energy_mwh, serial.total_energy_mwh);
    EXPECT_EQ(parallel.failovers, serial.failovers);
  }
}

TEST(FleetFailover, DisabledCheckpointingFallsBackToColdRestarts) {
  fleet::FederationConfig config = failover_config();
  config.slots = 60;
  config.checkpoint_interval = 0;
  const fault::FaultInjector injector(crash_only(13, 0.10));
  const core::RunContext context =
      core::RunContext(anxiety()).with_fault_injector(&injector);
  const fleet::FederationReport report = run_federation(config, context);

  EXPECT_GT(report.failovers, 0);
  long cold = 0;
  for (const fleet::ServerReport& row : report.servers) {
    cold += row.cold_restarts;
  }
  // Every crashed session had to be rebuilt at the prior...
  EXPECT_GT(cold, 0);
  // ...yet the run still completes every slot feasibly.
  EXPECT_EQ(report.slots_run, 60);
  EXPECT_EQ(report.capacity_violations, 0);
}

TEST(FleetFailover, CrashReplayIsThreadCountInvariant) {
  fleet::FederationConfig config = failover_config();
  config.slots = 40;
  config.mobility_rate = 0.2;  // crashes *and* handoffs in flight
  const core::RunContext base(anxiety());

  fleet::FederationReport reports[2];
  const unsigned thread_counts[] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    config.threads = thread_counts[i];
    const fault::FaultInjector injector(crash_only(65, 0.08));
    const core::RunContext context = base.with_fault_injector(&injector);
    reports[i] = run_federation(config, context);
  }
  EXPECT_GT(reports[0].failovers, 0);
  EXPECT_EQ(reports[0].state_digest, reports[1].state_digest);
  EXPECT_EQ(reports[0].total_energy_mwh, reports[1].total_energy_mwh);
  EXPECT_EQ(reports[0].handoffs, reports[1].handoffs);
  EXPECT_EQ(reports[0].failovers, reports[1].failovers);
}

// Server 2 leaves at slot 8 and, in the re-join runs, comes back at 16.
fleet::FederationConfig leave_config(bool rejoin) {
  fleet::FederationConfig config = failover_config();
  config.slots = 30;
  config.membership.push_back({/*slot=*/8, /*server=*/2, /*join=*/false, 1.0});
  if (rejoin) {
    config.membership.push_back(
        {/*slot=*/16, /*server=*/2, /*join=*/true, 1.0});
  }
  return config;
}

TEST(FleetFailover, RetiredServerCheckpointLeavesTheStore) {
  const fleet::FederationConfig config = leave_config(/*rejoin=*/false);
  obs::MetricsRegistry registry;
  const core::LpvsScheduler scheduler;
  fleet::Federation federation(
      config, long_trace(), scheduler,
      core::RunContext(anxiety()).with_metrics(&registry));
  const fleet::FederationReport report = federation.run();
  ASSERT_EQ(report.slots_run, 30);
  ASSERT_EQ(report.servers.size(), 3u);  // the departed row is still reported

  const fleet::CheckpointStore& store = federation.checkpoint_store();
  EXPECT_TRUE(store.contains(0));
  EXPECT_TRUE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.size(), 2u);
  // The replication gauge counts the live servers' frames only.
  EXPECT_EQ(registry.gauge("fleet_checkpoint_bytes").value(),
            static_cast<double>(store.stored_bytes()));
}

// A server id that re-joins starts with empty state, so a crash before its
// first new checkpoint is a cold restart of an empty server: nothing of its
// previous life (sessions, slot counter) comes back, and the run is
// indistinguishable from the same run without that crash.
TEST(FleetFailover, RejoinedServerCrashBeforeCheckpointIsACleanColdRestart) {
  const fleet::FederationConfig config = leave_config(/*rejoin=*/true);
  const std::uint64_t rejoin_slot =
      static_cast<std::uint64_t>(config.start_slot + 16);

  // A crash seed whose only crash in the run is server 2 in its re-join
  // slot (a fixed search, so the test does not depend on a magic seed).
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; seed == 0 && candidate < 100000;
       ++candidate) {
    const fault::FaultInjector probe(crash_only(candidate, 0.05));
    bool only_target = true;
    bool target = false;
    for (std::uint64_t server = 0; server < 3; ++server) {
      for (int slot = 0; slot < config.slots; ++slot) {
        const auto global =
            static_cast<std::uint64_t>(config.start_slot + slot);
        if (!probe.should_drop(fault::FaultSite::kServerCrash, server,
                               global)) {
          continue;
        }
        if (server == 2 && global == rejoin_slot) {
          target = true;
        } else {
          only_target = false;
        }
      }
    }
    if (target && only_target) seed = candidate;
  }
  ASSERT_NE(seed, 0u);

  const core::LpvsScheduler scheduler;
  fleet::Federation clean(config, long_trace(), scheduler,
                          core::RunContext(anxiety()));
  const fleet::FederationReport expected = clean.run();

  const fault::FaultInjector injector(crash_only(seed, 0.05));
  fleet::Federation crashed(
      config, long_trace(), scheduler,
      core::RunContext(anxiety()).with_fault_injector(&injector));
  const fleet::FederationReport report = crashed.run();

  EXPECT_EQ(report.failovers, 1);
  ASSERT_EQ(report.servers.size(), 3u);
  EXPECT_EQ(report.servers[2].failovers, 1);
  EXPECT_EQ(report.state_digest, expected.state_digest);
  EXPECT_EQ(report.total_energy_mwh, expected.total_energy_mwh);
  EXPECT_EQ(report.sessions_lost, 0);

  // Every replicated frame, server 2's sessions and slot counter included, is
  // the one the crash-free run replicated.
  for (std::uint64_t server = 0; server < 3; ++server) {
    SCOPED_TRACE(testing::Message() << "server " << server);
    common::StatusOr<fleet::Checkpoint> got =
        crashed.checkpoint_store().restore(server);
    common::StatusOr<fleet::Checkpoint> want =
        clean.checkpoint_store().restore(server);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value().slots_run, want.value().slots_run);
    EXPECT_EQ(got.value().encode(), want.value().encode());
  }
}

TEST(FleetFailover, CheckpointPhaseIsTimedOncePerCheckpointingSlot) {
  fleet::FederationConfig config = failover_config();
  config.slots = 60;
  config.checkpoint_interval = 4;
  obs::MetricsRegistry registry;
  const fleet::FederationReport report = run_federation(
      config, core::RunContext(anxiety()).with_metrics(&registry));
  ASSERT_EQ(report.slots_run, 60);
  // Registered by the run, so the empty bounds below are ignored.
  const obs::Histogram& checkpoint_ms =
      registry.histogram("lpvs_fleet_checkpoint_ms", {});
  const obs::Histogram& serve_ms =
      registry.histogram("lpvs_fleet_slot_serve_ms", {});
  EXPECT_EQ(checkpoint_ms.upper_bounds(), serve_ms.upper_bounds());
  EXPECT_EQ(checkpoint_ms.count(), 60 / 4);
  EXPECT_EQ(serve_ms.count(), 60);
}

}  // namespace
}  // namespace lpvs
