// Fleet federation unit suite (label `fleet`): weighted rendezvous
// placement, session wire codecs, lossy handoff, checkpoints, and the
// federation driver's determinism contract (bit-identical reports at any
// thread count).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/fault/fault_injector.hpp"
#include "lpvs/fleet/checkpoint.hpp"
#include "lpvs/fleet/federation.hpp"
#include "lpvs/fleet/handoff.hpp"
#include "lpvs/fleet/placement.hpp"
#include "lpvs/fleet/wire.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs {
namespace {

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

std::vector<fleet::ServerInfo> uniform_servers(int n) {
  std::vector<fleet::ServerInfo> servers;
  for (int s = 0; s < n; ++s) {
    servers.push_back({static_cast<std::uint64_t>(s), 1.0});
  }
  return servers;
}

fleet::SessionState sample_session(std::uint64_t user) {
  bayes::GammaEstimator gamma;
  bayes::NigGammaEstimator nig;
  common::Rng rng(user * 7919 + 17);
  for (int i = 0; i < 9; ++i) {
    const double observed = rng.uniform(0.1, 0.5);
    gamma.observe(observed);
    nig.observe(observed);
  }
  fleet::SessionState state;
  state.user = user;
  state.gamma = gamma.state();
  state.nig = nig.state();
  state.battery_fraction = rng.uniform(0.05, 0.95);
  state.last_assignment = user % 2 == 0 ? 1 : 0;
  state.slots_served = static_cast<std::uint32_t>(user % 13);
  return state;
}

// ---------------------------------------------------------------- wire --

TEST(FleetWire, RoundTripsEveryFieldType) {
  fleet::wire::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.15625);
  std::vector<std::uint8_t> bytes = w.take();

  fleet::wire::Reader r(bytes);
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::int64_t d = 0;
  double e = 0.0;
  ASSERT_TRUE(r.u8(a));
  ASSERT_TRUE(r.u32(b));
  ASSERT_TRUE(r.u64(c));
  ASSERT_TRUE(r.i64(d));
  ASSERT_TRUE(r.f64(e));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_EQ(d, -42);
  EXPECT_EQ(e, -0.15625);
}

TEST(FleetWire, SealDetectsCorruptionAnywhere) {
  fleet::wire::Writer w;
  for (int i = 0; i < 40; ++i) w.u8(static_cast<std::uint8_t>(i * 3));
  std::vector<std::uint8_t> bytes = w.take();
  fleet::wire::seal(bytes);

  std::vector<std::uint8_t> intact = bytes;
  EXPECT_TRUE(fleet::wire::unseal(intact).ok());

  for (std::size_t victim = 0; victim < bytes.size(); victim += 7) {
    std::vector<std::uint8_t> garbled = bytes;
    garbled[victim] ^= 0x10u;
    EXPECT_EQ(fleet::wire::unseal(garbled).code(),
              common::StatusCode::kDataLoss);
  }
}

TEST(FleetWire, ReaderRejectsShortBuffers) {
  fleet::wire::Writer w;
  w.u32(7);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  fleet::wire::Reader r(bytes);
  std::uint32_t value = 0;
  EXPECT_FALSE(r.u32(value));
}

// ----------------------------------------------------------- placement --

TEST(FleetPlacement, DeterministicAndCoversAllServers) {
  const fleet::Placement placement(uniform_servers(5));
  const fleet::Placement replay(uniform_servers(5));
  std::set<std::uint64_t> used;
  for (std::uint64_t user = 0; user < 500; ++user) {
    const std::uint64_t server = placement.place(user);
    EXPECT_EQ(server, replay.place(user));
    EXPECT_LT(server, 5u);
    used.insert(server);
  }
  EXPECT_EQ(used.size(), 5u);  // no server starves at this scale
}

TEST(FleetPlacement, BalancesRoughlyEvenlyAtEqualWeights) {
  const int kServers = 4;
  const int kUsers = 2000;
  const fleet::Placement placement(uniform_servers(kServers));
  std::map<std::uint64_t, int> load;
  for (std::uint64_t user = 0; user < kUsers; ++user) {
    ++load[placement.place(user)];
  }
  const double expected = static_cast<double>(kUsers) / kServers;
  for (const auto& [server, count] : load) {
    EXPECT_GT(count, expected * 0.7) << "server " << server;
    EXPECT_LT(count, expected * 1.3) << "server " << server;
  }
}

TEST(FleetPlacement, WeightsSkewLoadProportionally) {
  fleet::Placement placement(
      {{0, 1.0}, {1, 1.0}, {2, 2.0}});  // server 2 twice as heavy
  std::map<std::uint64_t, int> load;
  for (std::uint64_t user = 0; user < 4000; ++user) {
    ++load[placement.place(user)];
  }
  // Expected split 25/25/50%; accept generous tolerance.
  EXPECT_GT(load[2], load[0] * 1.5);
  EXPECT_GT(load[2], load[1] * 1.5);
}

TEST(FleetPlacement, SingleJoinMovesOnlyABoundedMinority) {
  const int kServers = 4;
  const int kUsers = 1200;
  fleet::Placement placement(uniform_servers(kServers));
  std::vector<std::uint64_t> before(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    before[static_cast<std::size_t>(u)] =
        placement.place(static_cast<std::uint64_t>(u));
  }

  placement.add_server({static_cast<std::uint64_t>(kServers), 1.0});
  int moved = 0;
  for (int u = 0; u < kUsers; ++u) {
    const std::uint64_t now = placement.place(static_cast<std::uint64_t>(u));
    if (now != before[static_cast<std::size_t>(u)]) {
      ++moved;
      // Rendezvous property: every move lands on the new server.
      EXPECT_EQ(now, static_cast<std::uint64_t>(kServers));
    }
  }
  // Ideal share is U/(N+1); allow 50% slack over the ideal.
  const int bound = kUsers / (kServers + 1) + kUsers / (2 * (kServers + 1));
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, bound);
}

TEST(FleetPlacement, LeaveRestoresExactPriorAssignments) {
  fleet::Placement placement(uniform_servers(4));
  std::vector<std::uint64_t> before(600);
  for (std::uint64_t u = 0; u < before.size(); ++u) {
    before[u] = placement.place(u);
  }
  placement.add_server({9, 1.0});
  EXPECT_TRUE(placement.remove_server(9));
  for (std::uint64_t u = 0; u < before.size(); ++u) {
    EXPECT_EQ(placement.place(u), before[u]);
  }
  // Leaving a member only re-homes its own users.
  ASSERT_TRUE(placement.remove_server(2));
  for (std::uint64_t u = 0; u < before.size(); ++u) {
    if (before[u] != 2) {
      EXPECT_EQ(placement.place(u), before[u]);
    }
  }
}

TEST(FleetPlacement, PlaceAllMatchesPerUserPlacementInOrder) {
  const fleet::Placement placement(uniform_servers(6));
  std::vector<std::uint64_t> users;
  for (std::uint64_t u = 0; u < 300; ++u) users.push_back(u * 104729 + 3);
  users.push_back(users.front());  // duplicates are placed, not deduplicated
  const std::vector<std::uint64_t> owners = placement.place_all(users);
  ASSERT_EQ(owners.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(owners[i], placement.place(users[i])) << "user " << users[i];
  }
  EXPECT_EQ(owners.back(), owners.front());
  EXPECT_TRUE(placement.place_all({}).empty());
}

TEST(FleetPlacement, GenerationTracksMembership) {
  fleet::Placement placement(uniform_servers(3));
  std::uint64_t generation = placement.generation();

  placement.add_server({7, 1.0});  // join
  EXPECT_GT(placement.generation(), generation);
  generation = placement.generation();

  placement.add_server({7, 2.0});  // weight-only re-add
  EXPECT_GT(placement.generation(), generation);
  generation = placement.generation();

  EXPECT_FALSE(placement.remove_server(42));  // failed leave
  EXPECT_EQ(placement.generation(), generation);

  EXPECT_TRUE(placement.remove_server(7));  // leave
  EXPECT_GT(placement.generation(), generation);
  generation = placement.generation();

  // Queries leave it alone.
  (void)placement.place(5);
  (void)placement.contains(1);
  EXPECT_EQ(placement.generation(), generation);
}

// ------------------------------------------------------- session codec --

TEST(FleetHandoff, SessionRoundTripIsBitExact) {
  const fleet::SessionState state = sample_session(11);
  const std::vector<std::uint8_t> bytes = fleet::encode_session(state);
  common::StatusOr<fleet::SessionState> decoded =
      fleet::decode_session(bytes);
  ASSERT_TRUE(decoded.ok());
  const fleet::SessionState& out = decoded.value();

  EXPECT_EQ(out.user, state.user);
  EXPECT_EQ(out.gamma.mean, state.gamma.mean);
  EXPECT_EQ(out.gamma.variance, state.gamma.variance);
  EXPECT_EQ(out.gamma.observations, state.gamma.observations);
  EXPECT_EQ(out.nig.mean, state.nig.mean);
  EXPECT_EQ(out.nig.kappa, state.nig.kappa);
  EXPECT_EQ(out.nig.alpha, state.nig.alpha);
  EXPECT_EQ(out.nig.beta, state.nig.beta);
  EXPECT_EQ(out.battery_fraction, state.battery_fraction);
  EXPECT_EQ(out.last_assignment, state.last_assignment);
  EXPECT_EQ(out.slots_served, state.slots_served);

  // The restored estimator's *next* estimate matches the original's to the
  // bit — the invariant that makes a successful handoff invisible.
  bayes::GammaEstimator original =
      bayes::GammaEstimator::from_state(state.gamma);
  bayes::GammaEstimator restored =
      bayes::GammaEstimator::from_state(out.gamma);
  original.observe(0.271828);
  restored.observe(0.271828);
  EXPECT_EQ(original.expected_gamma(), restored.expected_gamma());
}

TEST(FleetHandoff, DecodeRejectsCorruptionAndTruncation) {
  const std::vector<std::uint8_t> bytes =
      fleet::encode_session(sample_session(3));

  std::vector<std::uint8_t> garbled = bytes;
  garbled[bytes.size() / 2] ^= 0x40u;
  EXPECT_EQ(fleet::decode_session(garbled).status().code(),
            common::StatusCode::kDataLoss);

  std::vector<std::uint8_t> truncated = bytes;
  truncated.resize(truncated.size() - 9);
  EXPECT_FALSE(fleet::decode_session(truncated).ok());

  std::vector<std::uint8_t> foreign = bytes;
  foreign[0] ^= 0xFFu;  // breaks the magic *and* the checksum
  EXPECT_FALSE(fleet::decode_session(foreign).ok());
}

void expect_same_session(const fleet::SessionState& out,
                         const fleet::SessionState& in) {
  EXPECT_EQ(out.user, in.user);
  EXPECT_EQ(out.gamma.mean, in.gamma.mean);
  EXPECT_EQ(out.gamma.variance, in.gamma.variance);
  EXPECT_EQ(out.gamma.observations, in.gamma.observations);
  EXPECT_EQ(out.nig.mean, in.nig.mean);
  EXPECT_EQ(out.nig.kappa, in.nig.kappa);
  EXPECT_EQ(out.nig.alpha, in.nig.alpha);
  EXPECT_EQ(out.nig.beta, in.nig.beta);
  EXPECT_EQ(out.battery_fraction, in.battery_fraction);
  EXPECT_EQ(out.last_assignment, in.last_assignment);
  EXPECT_EQ(out.slots_served, in.slots_served);
}

TEST(FleetHandoff, SessionBodiesConcatenateInsideAnOuterFrame) {
  // The unframed body is what a checkpoint embeds many of: bodies must
  // be self-delimiting so they can be read back to back.
  std::vector<fleet::SessionState> sessions;
  for (std::uint64_t user : {4u, 17u, 230u}) {
    sessions.push_back(sample_session(user));
  }
  fleet::wire::Writer w;
  w.u32(static_cast<std::uint32_t>(sessions.size()));
  for (const fleet::SessionState& s : sessions) {
    fleet::encode_session_body(w, s);
  }
  w.u8(0x5A);  // trailing field of the enclosing frame
  const std::vector<std::uint8_t> bytes = w.take();

  fleet::wire::Reader r(bytes);
  std::uint32_t count = 0;
  ASSERT_TRUE(r.u32(count));
  ASSERT_EQ(count, sessions.size());
  for (const fleet::SessionState& want : sessions) {
    fleet::SessionState got;
    ASSERT_TRUE(fleet::decode_session_body(r, got));
    expect_same_session(got, want);
  }
  std::uint8_t trailer = 0;
  ASSERT_TRUE(r.u8(trailer));
  EXPECT_EQ(trailer, 0x5A);
  EXPECT_TRUE(r.exhausted());
}

TEST(FleetHandoff, SessionBodyCutAnywhereFailsToDecode) {
  fleet::wire::Writer w;
  fleet::encode_session_body(w, sample_session(8));
  const std::vector<std::uint8_t> full = w.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    fleet::wire::Reader r(prefix);
    fleet::SessionState state;
    EXPECT_FALSE(fleet::decode_session_body(r, state)) << "cut " << cut;
  }
  fleet::wire::Reader r(full);
  fleet::SessionState state;
  EXPECT_TRUE(fleet::decode_session_body(r, state));
  EXPECT_TRUE(r.exhausted());
}

TEST(FleetHandoff, SealedEncodingIsAPureFunctionOfTheState) {
  const fleet::SessionState state = sample_session(21);
  EXPECT_EQ(fleet::encode_session(state), fleet::encode_session(state));
  fleet::SessionState moved = state;
  moved.slots_served += 1;
  EXPECT_NE(fleet::encode_session(moved), fleet::encode_session(state));
  // Same length: every field is fixed-width, so sizes never leak state.
  EXPECT_EQ(fleet::encode_session(moved).size(),
            fleet::encode_session(state).size());
}

TEST(FleetHandoff, CleanChannelTransfersFirstAttempt) {
  const fleet::SessionHandoff handoff;
  const fleet::SessionState state = sample_session(5);
  fleet::SessionState received;
  const fleet::HandoffOutcome outcome =
      handoff.transfer(nullptr, state, /*slot=*/12, received);
  EXPECT_TRUE(outcome.transferred);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.backoff_ms, 0.0);
  EXPECT_EQ(received.gamma.mean, state.gamma.mean);
  EXPECT_GT(outcome.payload_bytes, 0u);
}

TEST(FleetHandoff, LossyChannelRetriesDeterministically) {
  fault::FaultInjector::Config config;
  config.seed = 404;
  config.site(fault::FaultSite::kHandoffTransfer).drop = 0.5;
  const fault::FaultInjector injector(config);
  const fleet::SessionHandoff handoff;

  int transferred = 0;
  int retried = 0;
  int failed = 0;
  std::vector<int> attempts_by_slot;
  for (std::uint64_t slot = 0; slot < 64; ++slot) {
    const fleet::SessionState state = sample_session(slot % 7);
    fleet::SessionState received;
    const fleet::HandoffOutcome outcome =
        handoff.transfer(&injector, state, slot, received);
    attempts_by_slot.push_back(outcome.attempts);
    if (outcome.transferred) {
      ++transferred;
      // A delivered payload is the payload that was sent.
      EXPECT_EQ(received.gamma.mean, state.gamma.mean);
      EXPECT_EQ(received.nig.beta, state.nig.beta);
    } else {
      ++failed;
    }
    if (outcome.attempts > 1) ++retried;
  }
  EXPECT_GT(transferred, 0);
  EXPECT_GT(retried, 0);  // 50% drop must force retries somewhere

  // Pure decisions: a replay draws the identical attempt counts.
  for (std::uint64_t slot = 0; slot < 64; ++slot) {
    const fleet::SessionState state = sample_session(slot % 7);
    fleet::SessionState received;
    const fleet::HandoffOutcome outcome =
        handoff.transfer(&injector, state, slot, received);
    EXPECT_EQ(outcome.attempts,
              attempts_by_slot[static_cast<std::size_t>(slot)]);
  }
  (void)failed;
}

TEST(FleetHandoff, CorruptionIsCaughtNeverDelivered) {
  fault::FaultInjector::Config config;
  config.seed = 77;
  config.site(fault::FaultSite::kHandoffTransfer).corrupt = 0.6;
  const fault::FaultInjector injector(config);
  const fleet::SessionHandoff handoff;
  for (std::uint64_t slot = 0; slot < 48; ++slot) {
    const fleet::SessionState state = sample_session(2);
    fleet::SessionState received;
    const fleet::HandoffOutcome outcome =
        handoff.transfer(&injector, state, slot, received);
    if (outcome.transferred) {
      // Whatever arrived passed the checksum, so it is the original.
      EXPECT_EQ(received.gamma.mean, state.gamma.mean);
      EXPECT_EQ(received.battery_fraction, state.battery_fraction);
    }
  }
}

// ----------------------------------------------------------- checkpoint --

TEST(FleetCheckpoint, RoundTripsSessions) {
  fleet::Checkpoint checkpoint;
  checkpoint.server = 3;
  checkpoint.slot = 91;
  checkpoint.slots_run = 17;
  for (std::uint64_t user : {2ull, 5ull, 11ull}) {
    checkpoint.sessions.push_back(sample_session(user));
  }

  const std::vector<std::uint8_t> bytes = checkpoint.encode();
  common::StatusOr<fleet::Checkpoint> decoded =
      fleet::Checkpoint::decode(bytes);
  ASSERT_TRUE(decoded.ok());
  const fleet::Checkpoint& out = decoded.value();
  EXPECT_EQ(out.server, 3u);
  EXPECT_EQ(out.slot, 91);
  EXPECT_EQ(out.slots_run, 17u);
  ASSERT_EQ(out.sessions.size(), 3u);
  EXPECT_EQ(out.sessions[1].user, 5u);
  EXPECT_EQ(out.sessions[1].gamma.mean, checkpoint.sessions[1].gamma.mean);
}

TEST(FleetCheckpoint, DecodeRejectsCorruptionAndForeignFrames) {
  fleet::Checkpoint checkpoint;
  checkpoint.server = 1;
  checkpoint.slot = 5;
  checkpoint.sessions.push_back(sample_session(0));
  std::vector<std::uint8_t> bytes = checkpoint.encode();

  std::vector<std::uint8_t> garbled = bytes;
  garbled[10] ^= 0x08u;
  EXPECT_EQ(fleet::Checkpoint::decode(garbled).status().code(),
            common::StatusCode::kDataLoss);

  // A sealed session payload is not a checkpoint frame.
  const std::vector<std::uint8_t> session_bytes =
      fleet::encode_session(sample_session(0));
  EXPECT_EQ(fleet::Checkpoint::decode(session_bytes).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(FleetCheckpoint, DecodeRejectsOtherVersions) {
  fleet::Checkpoint checkpoint;
  checkpoint.server = 1;
  checkpoint.slot = 5;
  checkpoint.sessions.push_back(sample_session(0));
  std::vector<std::uint8_t> payload = checkpoint.encode();
  ASSERT_TRUE(fleet::wire::unseal(payload).ok());

  // Intact, sealed frames that differ from the current one only in the
  // version word (bytes 4..7, after the magic).
  for (const std::uint32_t version :
       {fleet::Checkpoint::kVersion - 1, fleet::Checkpoint::kVersion + 1}) {
    std::vector<std::uint8_t> bytes = payload;
    for (int i = 0; i < 4; ++i) {
      bytes[4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(version >> (8 * i));
    }
    fleet::wire::seal(bytes);
    EXPECT_EQ(fleet::Checkpoint::decode(bytes).status().code(),
              common::StatusCode::kInvalidArgument)
        << "version " << version;
  }

  // The same rewrite with the current version decodes.
  std::vector<std::uint8_t> current = payload;
  fleet::wire::seal(current);
  EXPECT_TRUE(fleet::Checkpoint::decode(current).ok());
}

TEST(FleetCheckpoint, StoreKeepsLatestPerServer) {
  fleet::CheckpointStore store;
  EXPECT_FALSE(store.contains(4));
  EXPECT_EQ(store.restore(4).status().code(), common::StatusCode::kNotFound);

  fleet::Checkpoint first;
  first.server = 4;
  first.slot = 10;
  store.put(4, first.encode());
  fleet::Checkpoint second;
  second.server = 4;
  second.slot = 11;
  store.put(4, second.encode());

  ASSERT_TRUE(store.contains(4));
  EXPECT_EQ(store.size(), 1u);
  common::StatusOr<fleet::Checkpoint> restored = store.restore(4);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().slot, 11);
  EXPECT_GT(store.stored_bytes(), 0u);
}

TEST(FleetCheckpoint, JsonSidecarCarriesTheSummary) {
  fleet::Checkpoint checkpoint;
  checkpoint.server = 2;
  checkpoint.slot = 7;
  checkpoint.sessions.push_back(sample_session(9));
  const std::string json = checkpoint.to_json().dump();
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"posterior_mean\""), std::string::npos);
}

// ----------------------------------------------------------- federation --

trace::Trace small_trace() {
  trace::TraceConfig config;
  config.channel_count = 40;
  config.session_count = 160;
  config.horizon_slots = 96;
  return trace::TwitchLikeGenerator(config).generate(21);
}

fleet::FederationConfig small_federation(unsigned threads) {
  fleet::FederationConfig config;
  config.servers = 3;
  config.users = 18;
  config.min_viewers = 1;
  config.start_slot = 40;
  config.slots = 8;
  config.chunks_per_slot = 6;
  config.mobility_rate = 0.15;
  config.checkpoint_interval = 1;
  config.threads = threads;
  config.seed = 7;
  return config;
}

TEST(FleetFederation, ReportIsBitIdenticalAtAnyThreadCount) {
  const trace::Trace twitch = small_trace();
  const core::LpvsScheduler scheduler;
  const core::RunContext context(anxiety());

  fleet::FederationReport reports[3];
  const unsigned thread_counts[] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    fleet::Federation federation(small_federation(thread_counts[i]), twitch,
                                 scheduler, context);
    reports[i] = federation.run();
  }

  ASSERT_GT(reports[0].users, 0);
  EXPECT_GT(reports[0].total_energy_mwh, 0.0);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(reports[i].state_digest, reports[0].state_digest);
    EXPECT_EQ(reports[i].total_energy_mwh, reports[0].total_energy_mwh);
    EXPECT_EQ(reports[i].total_objective, reports[0].total_objective);
    EXPECT_EQ(reports[i].total_selected, reports[0].total_selected);
    EXPECT_EQ(reports[i].mean_anxiety, reports[0].mean_anxiety);
    EXPECT_EQ(reports[i].handoffs, reports[0].handoffs);
    EXPECT_EQ(reports[i].slots_run, reports[0].slots_run);
    ASSERT_EQ(reports[i].servers.size(), reports[0].servers.size());
    for (std::size_t s = 0; s < reports[0].servers.size(); ++s) {
      EXPECT_EQ(reports[i].servers[s].energy_mwh,
                reports[0].servers[s].energy_mwh);
      EXPECT_EQ(reports[i].servers[s].selected,
                reports[0].servers[s].selected);
    }
  }
}

TEST(FleetFederation, MobilityDrivesHandoffsWithoutInfeasibility) {
  const trace::Trace twitch = small_trace();
  const core::LpvsScheduler scheduler;
  obs::MetricsRegistry registry;
  const core::RunContext context =
      core::RunContext(anxiety()).with_metrics(&registry);

  fleet::FederationConfig config = small_federation(1);
  config.mobility_rate = 0.3;
  fleet::Federation federation(config, twitch, scheduler, context);
  const fleet::FederationReport report = federation.run();

  EXPECT_GT(report.handoffs, 0);
  EXPECT_EQ(report.capacity_violations, 0);
  EXPECT_EQ(registry.counter("fleet_handoff_total").value(),
            report.handoffs + report.handoff_failures);
  EXPECT_EQ(registry.counter("fleet_slots_total").value(),
            static_cast<long>(report.slots_run));
  // Lossless channel: every transfer lands.
  EXPECT_EQ(report.handoff_failures, 0);
  EXPECT_EQ(report.failovers, 0);
}

TEST(FleetFederation, PhaseClocksAccountForTheSlot) {
  const trace::Trace twitch = small_trace();
  const core::LpvsScheduler scheduler;
  obs::MetricsRegistry registry;
  const core::RunContext context =
      core::RunContext(anxiety()).with_metrics(&registry);

  fleet::Federation federation(small_federation(2), twitch, scheduler,
                               context);
  const auto start = std::chrono::steady_clock::now();
  const fleet::FederationReport report = federation.run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  const obs::Histogram& pre = registry.histogram("lpvs_fleet_pre_serve_ms", {});
  const obs::Histogram& serve =
      registry.histogram("lpvs_fleet_slot_serve_ms", {});
  const obs::Histogram& checkpoint =
      registry.histogram("lpvs_fleet_checkpoint_ms", {});
  // One observation per slot each (checkpoint_interval 1 checkpoints every
  // slot), and the three phases never claim more than the run took.
  ASSERT_GT(report.slots_run, 0);
  EXPECT_EQ(pre.count(), report.slots_run);
  EXPECT_EQ(serve.count(), report.slots_run);
  EXPECT_EQ(checkpoint.count(), report.slots_run);
  EXPECT_GT(pre.sum(), 0.0);
  EXPECT_LE(pre.sum() + serve.sum() + checkpoint.sum(), wall_ms);
}

TEST(FleetFederation, SuccessfulHandoffPreservesTheScheduleStream) {
  // Two identical runs, one with mobility handing sessions between servers
  // over a *clean* channel: posteriors move bit-exactly, so the user's own
  // Bayes trajectory is unaffected by which server holds it.  (Schedules
  // can differ — the user is packed with a different neighborhood — but
  // the run must stay deterministic and feasible.)
  const trace::Trace twitch = small_trace();
  const core::LpvsScheduler scheduler;
  const core::RunContext context(anxiety());

  fleet::FederationConfig mobile = small_federation(1);
  mobile.mobility_rate = 0.4;
  fleet::Federation a(mobile, twitch, scheduler, context);
  fleet::Federation b(mobile, twitch, scheduler, context);
  const fleet::FederationReport first = a.run();
  const fleet::FederationReport second = b.run();
  EXPECT_GT(first.handoffs, 0);
  EXPECT_EQ(first.state_digest, second.state_digest);
  EXPECT_EQ(first.total_energy_mwh, second.total_energy_mwh);
}

TEST(FleetFederation, MembershipJoinRebalancesBoundedly) {
  const trace::Trace twitch = small_trace();
  const core::LpvsScheduler scheduler;
  obs::MetricsRegistry registry;
  const core::RunContext context =
      core::RunContext(anxiety()).with_metrics(&registry);

  fleet::FederationConfig config = small_federation(1);
  config.mobility_rate = 0.0;
  config.slots = 6;
  config.membership.push_back({/*slot=*/3, /*server=*/7, /*join=*/true, 1.0});
  fleet::Federation federation(config, twitch, scheduler, context);
  const fleet::FederationReport report = federation.run();

  // Rendezvous bound: a join moves about U/(N+1) users, never more than
  // the ceiling plus slack.
  const long bound = report.users / (3 + 1) + 4;
  EXPECT_GT(report.placement_moves, 0);
  EXPECT_LE(report.placement_moves, bound);
  EXPECT_EQ(registry.counter("fleet_placement_moves_total").value(),
            report.placement_moves);
  // The joined server served slots after the join.
  bool found = false;
  for (const fleet::ServerReport& row : report.servers) {
    if (row.id == 7) {
      found = true;
      EXPECT_GT(row.slots_run, 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FleetFederation, ServerLeaveDrainsItsSessions) {
  const trace::Trace twitch = small_trace();
  const core::LpvsScheduler scheduler;
  const core::RunContext context(anxiety());

  fleet::FederationConfig config = small_federation(1);
  config.mobility_rate = 0.0;
  config.slots = 6;
  config.membership.push_back(
      {/*slot=*/3, /*server=*/1, /*join=*/false, 1.0});
  fleet::Federation federation(config, twitch, scheduler, context);
  const fleet::FederationReport report = federation.run();

  EXPECT_GT(report.placement_moves, 0);
  EXPECT_EQ(report.capacity_violations, 0);
  for (const fleet::ServerReport& row : report.servers) {
    if (row.id == 1) {
      // The departed server stopped serving at the leave slot.
      EXPECT_LE(row.slots_run, 3);
      EXPECT_GT(row.handoffs_out, 0);
    }
  }
}

// ------------------------------------------- diurnal load + autoscaling --

trace::Trace diurnal_trace() {
  trace::TraceConfig config;
  config.channel_count = 40;
  config.session_count = 160;
  config.horizon_slots = 220;
  return trace::TwitchLikeGenerator(config).generate(23);
}

/// One compressed "day" of 160 slots with the full control surface on:
/// sinusoidal arrivals peaking mid-run, bounded lifetimes so the audience
/// churns, and the load-derived autoscaler tracking it.
fleet::FederationConfig diurnal_federation(unsigned threads) {
  fleet::FederationConfig config;
  config.seed = 11;
  config.servers = 2;
  config.users = 8;
  config.min_viewers = 1;
  config.start_slot = 10;
  config.slots = 160;
  config.chunks_per_slot = 6;
  config.mobility_rate = 0.02;
  config.checkpoint_interval = 2;
  config.threads = threads;

  config.diurnal.enabled = true;
  config.diurnal.base_arrivals_per_slot = 0.05;
  config.diurnal.peak_arrivals_per_slot = 2.5;
  config.diurnal.period_slots = 160;
  config.diurnal.peak_phase = 0.5;
  config.diurnal.min_lifetime_slots = 10;
  config.diurnal.max_lifetime_slots = 40;
  config.diurnal.max_users = 400;

  config.autoscale.enabled = true;
  config.autoscale.interval_slots = 8;
  config.autoscale.cooldown_slots = 10;
  config.autoscale.min_servers = 2;
  config.autoscale.max_servers = 8;
  config.autoscale.target_sessions_per_server = 8.0;
  return config;
}

TEST(FleetDiurnal, ArrivalsFollowTheDayCurve) {
  const trace::Trace twitch = diurnal_trace();
  const core::LpvsScheduler scheduler;
  obs::MetricsRegistry registry;
  const core::RunContext context =
      core::RunContext(anxiety()).with_metrics(&registry);

  fleet::FederationConfig config = diurnal_federation(1);
  // Sample the cumulative arrival counter at every slot end through the
  // telemetry hook (reads only; the hook must not steer the run).
  std::vector<long> cumulative(static_cast<std::size_t>(config.slots), 0);
  config.slot_hook = [&](int slot, std::int64_t sim_time_ms) {
    EXPECT_EQ(sim_time_ms, static_cast<std::int64_t>(slot + 1) * 60'000);
    cumulative[static_cast<std::size_t>(slot)] =
        registry.snapshot_all().counter_value("lpvs_fleet_arrivals_total");
  };
  fleet::Federation federation(config, twitch, scheduler, context);
  const fleet::FederationReport report = federation.run();

  EXPECT_GT(report.arrivals, 50);
  EXPECT_EQ(cumulative.back(), report.arrivals);
  // The audience churns: bounded lifetimes end sessions, nobody is lost.
  EXPECT_GT(report.sessions_ended, 0);
  EXPECT_EQ(report.sessions_lost, 0);
  EXPECT_EQ(report.capacity_violations, 0);

  // The sinusoid shows in the counts: the half-day around the peak
  // (slots 40..120, peak_phase 0.5 of 160) carries far more arrivals than
  // the two trough quarters combined.
  const long peak_half = cumulative[119] - cumulative[39];
  const long trough_half = report.arrivals - peak_half;
  EXPECT_GT(peak_half, 2 * std::max<long>(1, trough_half));
}

TEST(FleetAutoscale, ScalesOutUnderLoadAndUnwinds) {
  const trace::Trace twitch = diurnal_trace();
  const core::LpvsScheduler scheduler;
  const core::RunContext context(anxiety());

  fleet::Federation federation(diurnal_federation(1), twitch, scheduler,
                               context);
  const fleet::FederationReport report = federation.run();

  // The peak forced scale-out past the initial fleet; the trough after it
  // retired capacity again.
  EXPECT_GT(report.autoscale_joins, 0);
  EXPECT_GT(report.autoscale_leaves, 0);
  EXPECT_GT(report.peak_servers, 2);
  EXPECT_LE(report.peak_servers, 8);
  EXPECT_EQ(report.capacity_violations, 0);
  EXPECT_EQ(report.sessions_lost, 0);
  // Every minted autoscale server that served shows up in the report with
  // an id from the reserved range.
  bool minted = false;
  for (const fleet::ServerReport& row : report.servers) {
    if (row.id >= 1000) {
      minted = true;
      EXPECT_GT(row.slots_run, 0);
    }
  }
  EXPECT_TRUE(minted);
}

TEST(FleetDiurnal, FullControlSurfaceIsBitIdenticalAtAnyThreadCount) {
  // Diurnal arrivals + autoscaling + injected crashes + lossy handoffs,
  // replayed at 1/2/8 serve threads: the same determinism contract the
  // static fleet keeps must hold with the whole control surface active.
  const trace::Trace twitch = diurnal_trace();
  const core::LpvsScheduler scheduler;
  fault::FaultInjector::Config fault_config;
  fault_config.seed = 31;
  fault_config.site(fault::FaultSite::kServerCrash).drop = 0.01;
  fault_config.site(fault::FaultSite::kHandoffTransfer).drop = 0.15;
  const fault::FaultInjector injector(fault_config);
  const core::RunContext context =
      core::RunContext(anxiety()).with_fault_injector(&injector);

  fleet::FederationReport reports[3];
  const unsigned thread_counts[] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    fleet::Federation federation(diurnal_federation(thread_counts[i]),
                                 twitch, scheduler, context);
    reports[i] = federation.run();
  }

  ASSERT_GT(reports[0].arrivals, 0);
  EXPECT_GT(reports[0].failovers, 0);
  EXPECT_GT(reports[0].autoscale_joins, 0);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(reports[i].state_digest, reports[0].state_digest);
    EXPECT_EQ(reports[i].total_energy_mwh, reports[0].total_energy_mwh);
    EXPECT_EQ(reports[i].arrivals, reports[0].arrivals);
    EXPECT_EQ(reports[i].sessions_started, reports[0].sessions_started);
    EXPECT_EQ(reports[i].sessions_ended, reports[0].sessions_ended);
    EXPECT_EQ(reports[i].sessions_lost, reports[0].sessions_lost);
    EXPECT_EQ(reports[i].autoscale_joins, reports[0].autoscale_joins);
    EXPECT_EQ(reports[i].autoscale_leaves, reports[0].autoscale_leaves);
    EXPECT_EQ(reports[i].peak_servers, reports[0].peak_servers);
    EXPECT_EQ(reports[i].handoffs, reports[0].handoffs);
    EXPECT_EQ(reports[i].failovers, reports[0].failovers);
  }
}

TEST(FleetDiurnal, MembershipChurnDigestIsPinned) {
  // The digest of a run that moves every placement input at once: a
  // weight-only re-join, a leave, autoscale joins and leaves, mobility and
  // lossy handoffs.  Pinned at 1/2/8 threads, so a change to how the
  // federation walks its users or re-places them must keep every byte.
  constexpr std::uint64_t kChurnDigest = 0x8D0CE1AAA32CF748ULL;
  const trace::Trace twitch = diurnal_trace();
  const core::LpvsScheduler scheduler;
  fault::FaultInjector::Config fault_config;
  fault_config.seed = 41;
  fault_config.site(fault::FaultSite::kServerCrash).drop = 0.01;
  fault_config.site(fault::FaultSite::kHandoffTransfer).drop = 0.15;
  const fault::FaultInjector injector(fault_config);
  const core::RunContext context =
      core::RunContext(anxiety()).with_fault_injector(&injector);

  for (const unsigned threads : {1u, 2u, 8u}) {
    fleet::FederationConfig config = diurnal_federation(threads);
    config.mobility_rate = 0.05;
    config.membership.push_back(
        {/*slot=*/30, /*server=*/1, /*join=*/true, /*weight=*/2.5});
    config.membership.push_back(
        {/*slot=*/90, /*server=*/0, /*join=*/false, 1.0});
    fleet::Federation federation(config, twitch, scheduler, context);
    const fleet::FederationReport report = federation.run();
    EXPECT_GT(report.placement_moves, 0);
    EXPECT_GT(report.handoffs, 0);
    EXPECT_GT(report.autoscale_joins, 0);
    EXPECT_GT(report.autoscale_leaves, 0);
    EXPECT_GT(report.failovers, 0);
    EXPECT_EQ(report.sessions_lost, 0);
    EXPECT_EQ(report.state_digest, kChurnDigest)
        << std::hex << "threads " << std::dec << threads << " digest 0x"
        << std::hex << report.state_digest;
  }
}

}  // namespace
}  // namespace lpvs
