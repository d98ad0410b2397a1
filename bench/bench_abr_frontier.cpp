// QoE x energy x anxiety frontier of the rung policies (joint subsystem's
// headline experiment).
//
// One fleet — 12 users on the committed bench/traces mix (urban LTE, HSDPA
// commute, evening Wi-Fi), identical devices, batteries, and edge
// capacities — streamed under five rung policies:
//
//   fixed-rate    always the top rung (the "just give me quality" client)
//   rate-based    client-side: highest rung under 0.85x the estimate
//   buffer-based  client-side BBA: rung linear in the buffer level
//   bola          client-side BOLA: Lyapunov rung choice, buffer only
//   joint-ilp     server-side: rungs co-optimized with the display
//                 transform in the slot ILP (abr::JointAbrScheduler)
//
// Every policy gets the *same* display-transform scheduling (LPVS Phase
// 1+2) so the frontier isolates the rung decision; only joint-ilp folds
// the rung into the same solve.  Per policy the bench reports mean MPC-
// style QoE score, total energy (display + receive/decode via the ladder's
// affine model), mean anxiety phi(battery), and rebuffer totals.
//
// Acceptance claim (BENCH_abr_frontier.json `pass`): joint-ilp dominates
// fixed-rate AND at least one client-side baseline — QoE no worse and
// energy no higher, strictly better on at least one axis.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_output.hpp"
#include "lpvs/abr/joint.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/common/table.hpp"
#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/streaming/abr.hpp"
#include "lpvs/streaming/network.hpp"
#include "lpvs/streaming/playout.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace {

using namespace lpvs;

constexpr int kUsers = 12;
constexpr int kSlots = 40;
constexpr int kChunksPerSlot = 3;
constexpr double kChunkSeconds = 10.0;
constexpr double kSlotSeconds = kChunksPerSlot * kChunkSeconds;
constexpr double kBufferCapacityS = 60.0;
constexpr double kStartupThresholdS = 10.0;
constexpr double kJointThroughputSafety = 0.35;

const char* kTraceFiles[] = {"lte_urban.txt", "hsdpa_commute.txt",
                             "wifi_tail.txt"};

/// Loads a committed trace whether the bench runs from the repo root or
/// from build/bench.
streaming::ThroughputModel load_trace(const std::string& name, bool& ok) {
  for (const char* prefix :
       {"bench/traces/", "../bench/traces/", "../../bench/traces/"}) {
    auto model = streaming::ThroughputModel::from_trace_file(prefix + name);
    if (model.ok()) return *model;
  }
  std::fprintf(stderr, "cannot load bench/traces/%s\n", name.c_str());
  ok = false;
  return streaming::ThroughputModel{};
}

/// One viewer: device state, its trace-replayed last hop, playout buffer,
/// and the per-session QoE/energy accounting.
struct User {
  core::DeviceSlotInput device;
  streaming::ThroughputModel net;
  streaming::PlayoutBuffer playout{kChunkSeconds, kBufferCapacityS,
                                   kStartupThresholdS};
  double estimate_mbps = 3.0;  ///< previous slot's realized throughput
  std::size_t last_rung = 0;

  streaming::SessionQoe qoe;
  double bitrate_sum_mbps = 0.0;
  double display_energy_mwh = 0.0;
  double receive_energy_mwh = 0.0;
  double anxiety_sum = 0.0;
};

/// The fleet at slot 0 — identical across policies (regenerated from the
/// same seed, traces phase-shifted per user).
std::vector<User> make_fleet(
    const std::vector<streaming::ThroughputModel>& traces) {
  common::Rng rng(2026);
  std::vector<User> fleet;
  for (int u = 0; u < kUsers; ++u) {
    User user;
    user.device.id = common::DeviceId{static_cast<std::uint32_t>(u + 1)};
    user.device.power_rates_mw.resize(kChunksPerSlot);
    user.device.chunk_durations_s.assign(kChunksPerSlot, kChunkSeconds);
    for (auto& p : user.device.power_rates_mw) p = rng.uniform(550.0, 1100.0);
    user.device.battery_capacity_mwh = rng.uniform(2500.0, 4500.0);
    user.device.initial_energy_mwh =
        user.device.battery_capacity_mwh * rng.uniform(0.15, 0.55);
    user.device.gamma = rng.uniform(0.18, 0.45);
    user.device.compute_cost = rng.uniform(0.3, 0.8);
    user.device.storage_cost = rng.uniform(50.0, 150.0);
    user.net = traces[static_cast<std::size_t>(u) % 3];
    user.net.set_trace_position(static_cast<std::size_t>(5 * u));
    fleet.push_back(std::move(user));
  }
  return fleet;
}

core::SlotProblem display_problem(const std::vector<User>& fleet) {
  core::SlotProblem problem;
  problem.lambda = 2000.0;
  problem.compute_capacity = 0.5 * 0.55 * kUsers;
  problem.storage_capacity = 0.6 * 100.0 * kUsers;
  for (const User& user : fleet) problem.devices.push_back(user.device);
  return problem;
}

/// Plays one slot's chunks at the granted rung against the realized
/// throughput, updating the buffer and QoE accounting.  `rebuffer_events`
/// counts every stalled chunk here, not only the first of an episode; the
/// policy row reports the total as `stalled_chunks`.
void play_slot(User& user, double granted_mbps, double realized_mbps) {
  const double link = std::max(realized_mbps, 0.05);
  for (int k = 0; k < kChunksPerSlot; ++k) {
    const streaming::PlayoutStep step =
        user.playout.step(granted_mbps * kChunkSeconds / link);
    user.qoe.startup_delay_s += step.startup_s;
    user.qoe.rebuffer_time_s += step.stalled_s;
    if (step.stalled_s > 0.0) ++user.qoe.rebuffer_events;
    user.bitrate_sum_mbps += granted_mbps;
    ++user.qoe.chunks_played;
  }
}

enum class Policy { kFixedRate, kRateBased, kBufferBased, kBola, kJointIlp };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFixedRate: return "fixed-rate";
    case Policy::kRateBased: return "rate-based";
    case Policy::kBufferBased: return "buffer-based";
    case Policy::kBola: return "bola";
    case Policy::kJointIlp: return "joint-ilp";
  }
  return "?";
}

struct PolicyResult {
  std::string policy;
  double qoe_score_mean = 0.0;
  double energy_total_mwh = 0.0;
  double display_energy_mwh = 0.0;
  double receive_energy_mwh = 0.0;
  double anxiety_mean = 0.0;
  double mean_bitrate_mbps = 0.0;
  double rebuffer_time_s = 0.0;
  long stalled_chunks = 0;  ///< not freeze episodes
  long ilp_nodes = 0;
};

PolicyResult run_policy(Policy policy,
                        const std::vector<streaming::ThroughputModel>& traces,
                        const abr::LadderModel& ladder,
                        const survey::AnxietyModel& anxiety) {
  std::vector<User> fleet = make_fleet(traces);
  const std::vector<double>& rungs = ladder.config().rungs_mbps;
  const std::span<const double> ladder_span(rungs);

  std::unique_ptr<streaming::AbrController> controller;
  switch (policy) {
    case Policy::kRateBased:
      controller = std::make_unique<streaming::RateBasedAbr>();
      break;
    case Policy::kBufferBased:
      controller = std::make_unique<streaming::BufferBasedAbr>();
      break;
    case Policy::kBola:
      controller = std::make_unique<streaming::BolaAbr>(
          5.0, kChunkSeconds, kBufferCapacityS);
      break;
    default:
      break;
  }

  const core::LpvsScheduler display_scheduler;
  const abr::JointAbrScheduler joint_scheduler;
  const core::RunContext ctx(anxiety);
  common::Rng net_rng(7);  // trace replay draws nothing from it

  PolicyResult result;
  result.policy = policy_name(policy);

  for (int slot = 0; slot < kSlots; ++slot) {
    // 1. Rung decisions from last slot's state (buffer, stale estimate).
    std::vector<std::size_t> rung(kUsers, 0);
    core::Schedule display;
    if (policy == Policy::kJointIlp) {
      abr::JointSlotProblem joint;
      joint.base = display_problem(fleet);
      for (const User& user : fleet) {
        abr::DeviceStreamState stream;
        stream.buffer_s = user.playout.level_s();
        stream.throughput_mbps = user.estimate_mbps;
        joint.streams.push_back(stream);
      }
      joint.ladder = ladder;
      // The admissibility gate is safety * estimate * (1 + buffer/slot);
      // with a 60 s buffer and 30 s slots the relaxation factor reaches 3,
      // so scale safety down so the *fully relaxed* gate sits at ~1.05x
      // the (stale, volatile) estimate — deep buffers may ride through an
      // overshoot, empty buffers get a hard margin.
      joint.throughput_safety = kJointThroughputSafety;
      const abr::JointSchedule schedule = joint_scheduler.schedule(joint, ctx);
      rung = schedule.rung;
      display = schedule.display;
      result.ilp_nodes += schedule.ilp_nodes;
    } else {
      for (int u = 0; u < kUsers; ++u) {
        switch (policy) {
          case Policy::kFixedRate:
            rung[static_cast<std::size_t>(u)] = rungs.size() - 1;
            break;
          default:
            rung[static_cast<std::size_t>(u)] = controller->pick_rung(
                ladder_span,
                fleet[static_cast<std::size_t>(u)].playout.level_s(),
                fleet[static_cast<std::size_t>(u)].estimate_mbps);
            break;
        }
      }
      display = display_scheduler.schedule(display_problem(fleet), ctx);
      result.ilp_nodes += display.ilp_nodes;
    }

    // 2. Play the slot and account energy/anxiety per user.
    for (int u = 0; u < kUsers; ++u) {
      User& user = fleet[static_cast<std::size_t>(u)];
      const std::size_t m = rung[static_cast<std::size_t>(u)];
      const double granted = ladder.bitrate_mbps(m);
      const double realized = user.net.sample_mbps(net_rng);

      if (user.playout.playing() && m != user.last_rung) {
        ++user.qoe.bitrate_switches;
      }
      user.last_rung = m;
      play_slot(user, granted, realized);
      user.estimate_mbps = realized;

      double display_mwh = 0.0;
      for (std::size_t k = 0; k < user.device.power_rates_mw.size(); ++k) {
        display_mwh += user.device.power_rates_mw[k] *
                       user.device.chunk_durations_s[k] / 3600.0;
      }
      if (display.x[static_cast<std::size_t>(u)] != 0) {
        display_mwh *= 1.0 - user.device.gamma;
      }
      const double rx_mwh = ladder.receive_energy_mwh(m, kSlotSeconds);
      user.display_energy_mwh += display_mwh;
      user.receive_energy_mwh += rx_mwh;
      user.device.initial_energy_mwh = std::max(
          0.0, user.device.initial_energy_mwh - display_mwh - rx_mwh);
      user.anxiety_sum += anxiety(user.device.initial_energy_mwh /
                                  user.device.battery_capacity_mwh);
    }
  }

  for (User& user : fleet) {
    user.qoe.mean_bitrate_mbps =
        user.bitrate_sum_mbps / std::max(user.qoe.chunks_played, 1);
    result.qoe_score_mean +=
        user.qoe.score(4.3, 0.5, kChunkSeconds) / kUsers;
    result.display_energy_mwh += user.display_energy_mwh;
    result.receive_energy_mwh += user.receive_energy_mwh;
    result.anxiety_mean += user.anxiety_sum / (kUsers * kSlots);
    result.mean_bitrate_mbps += user.qoe.mean_bitrate_mbps / kUsers;
    result.rebuffer_time_s += user.qoe.rebuffer_time_s;
    result.stalled_chunks += user.qoe.rebuffer_events;
  }
  result.energy_total_mwh =
      result.display_energy_mwh + result.receive_energy_mwh;
  return result;
}

/// Frontier dominance: no worse on both axes, strictly better on one.
bool dominates(const PolicyResult& a, const PolicyResult& b) {
  const bool no_worse =
      a.qoe_score_mean >= b.qoe_score_mean - 1e-9 &&
      a.energy_total_mwh <= b.energy_total_mwh + 1e-9;
  const bool strictly_better =
      a.qoe_score_mean > b.qoe_score_mean + 1e-6 ||
      a.energy_total_mwh < b.energy_total_mwh - 1e-6;
  return no_worse && strictly_better;
}

}  // namespace

int main() {
  bool traces_ok = true;
  std::vector<streaming::ThroughputModel> traces;
  for (const char* name : kTraceFiles) {
    traces.push_back(load_trace(name, traces_ok));
  }
  if (!traces_ok) return 1;

  const survey::AnxietyModel& anxiety = survey::AnxietyModel::reference();
  const abr::LadderModel ladder;

  const Policy policies[] = {Policy::kFixedRate, Policy::kRateBased,
                             Policy::kBufferBased, Policy::kBola,
                             Policy::kJointIlp};
  std::vector<PolicyResult> results;
  for (const Policy policy : policies) {
    results.push_back(run_policy(policy, traces, ladder, anxiety));
  }

  common::Table table({"policy", "qoe", "energy mWh", "rx mWh", "anxiety",
                       "bitrate", "rebuf s", "stalled chunks"});
  for (const PolicyResult& r : results) {
    table.add_row({r.policy, common::Table::num(r.qoe_score_mean, 3),
                   common::Table::num(r.energy_total_mwh, 1),
                   common::Table::num(r.receive_energy_mwh, 1),
                   common::Table::num(r.anxiety_mean, 4),
                   common::Table::num(r.mean_bitrate_mbps, 2),
                   common::Table::num(r.rebuffer_time_s, 1),
                   std::to_string(r.stalled_chunks)});
  }
  std::printf("%s\n", table.render().c_str());

  const PolicyResult& joint = results.back();
  const bool beats_fixed = dominates(joint, results[0]);
  bool beats_client = false;
  for (std::size_t i = 1; i + 1 < results.size(); ++i) {
    if (dominates(joint, results[i])) {
      beats_client = true;
      std::printf("joint-ilp dominates %s\n", results[i].policy.c_str());
    }
  }
  const bool pass = beats_fixed && beats_client;
  std::printf(
      "acceptance (joint-ilp dominates fixed-rate and >=1 client-side "
      "baseline): %s\n",
      pass ? "PASS" : "FAIL");

  common::Json knobs = common::Json::object();
  knobs.set("seed", 2026);
  knobs.set("users", static_cast<long>(kUsers));
  knobs.set("slots", static_cast<long>(kSlots));
  knobs.set("chunks_per_slot", static_cast<long>(kChunksPerSlot));
  knobs.set("chunk_seconds", kChunkSeconds);
  common::Json trace_list = common::Json::array();
  for (const char* name : kTraceFiles) trace_list.push(std::string(name));
  knobs.set("traces", std::move(trace_list));
  knobs.set("qoe_weight", abr::JointSlotProblem{}.qoe_weight);
  knobs.set("receive_energy_weight",
            abr::JointSlotProblem{}.receive_energy_weight);
  knobs.set("joint_throughput_safety", kJointThroughputSafety);

  common::Json rows = common::Json::array();
  for (const PolicyResult& r : results) {
    common::Json row = common::Json::object();
    row.set("policy", r.policy);
    row.set("qoe_score_mean", r.qoe_score_mean);
    row.set("energy_total_mwh", r.energy_total_mwh);
    row.set("display_energy_mwh", r.display_energy_mwh);
    row.set("receive_energy_mwh", r.receive_energy_mwh);
    row.set("anxiety_mean", r.anxiety_mean);
    row.set("mean_bitrate_mbps", r.mean_bitrate_mbps);
    row.set("rebuffer_time_s", r.rebuffer_time_s);
    row.set("stalled_chunks", static_cast<long>(r.stalled_chunks));
    row.set("ilp_nodes", static_cast<long>(r.ilp_nodes));
    rows.push(std::move(row));
  }

  const bool wrote = lpvs::bench::write_bench_json(
      "abr_frontier",
      lpvs::bench::bench_doc("abr_frontier", pass, std::move(knobs),
                             std::move(rows)));
  return pass && wrote ? 0 : 1;
}
