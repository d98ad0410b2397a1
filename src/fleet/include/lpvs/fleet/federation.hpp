// The federation driver (fleet tentpole, part 4): N emulated edge servers
// over one partitioned Twitch trace.
//
// Each server runs the paper's per-slot pipeline (price content, solve the
// Phase-1 ILP through core::LpvsScheduler, play back, update the Bayes
// posteriors) for *its* users only; which server owns which user is decided
// by fleet::Placement (weighted rendezvous hashing), users roam between
// servers at a configurable mobility rate (fleet::SessionHandoff moves
// their learned state over the lossy channel), servers can crash
// (fault::FaultSite::kServerCrash) and fail over from fleet::Checkpoint,
// and membership itself can change mid-run (scheduled join/leave events,
// each triggering the minimal rendezvous rebalancing).
//
// Determinism contract (the same one the emulator and batch scheduler
// keep): the whole run is a pure function of (trace, config, injector
// seed).  Every control decision — mobility, crash, handoff loss — is
// keyed on stable (entity, slot) pairs; the per-slot server phase runs the
// servers in parallel on a ThreadPool with results landing in
// pre-assigned slots and users partitioned across servers, so any thread
// count produces the bit-identical FederationReport
// (tests/fleet_test.cpp runs 1/2/8 threads).
//
// What the federation deliberately does NOT re-model: the per-device
// signaling energy of report exchanges (the single-server Emulator owns
// that path); here reports always arrive and the federation-level faults
// are the interesting ones.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "lpvs/core/run_context.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/emu/cluster_params.hpp"
#include "lpvs/fleet/checkpoint.hpp"
#include "lpvs/fleet/handoff.hpp"
#include "lpvs/fleet/placement.hpp"
#include "lpvs/trace/trace.hpp"

namespace lpvs::common {
class ThreadPool;
}  // namespace lpvs::common

namespace lpvs::fleet {

/// A scheduled membership change: `server` joins (with `weight`) or leaves
/// at the start of `slot` (relative to the run, not the trace).
struct MembershipEvent {
  int slot = 0;
  std::uint64_t server = 0;
  bool join = true;
  double weight = 1.0;
};

/// Diurnal arrival process: new viewers join mid-run following a sinusoidal
/// day curve, so a long-horizon soak sees the load the autoscaler must
/// track instead of the fixed start-slot audience.  Arrival counts are
/// deterministic Poisson draws keyed on (seed, slot); each arrival clones a
/// channel from the trace-derived session pool and draws its own device,
/// battery, give-up level, and lifetime from per-user derived streams.
struct DiurnalLoadConfig {
  bool enabled = false;
  double base_arrivals_per_slot = 0.0;  ///< mean arrivals at the trough
  double peak_arrivals_per_slot = 0.0;  ///< mean arrivals at the peak
  int period_slots = 1440;              ///< one simulated day of 1-min slots
  /// Fraction of the period where the peak falls (0.5 = mid-period).
  double peak_phase = 0.5;
  int min_lifetime_slots = 60;   ///< arrival watch-time bounds (uniform)
  int max_lifetime_slots = 360;
  int max_users = 0;  ///< hard cap on users ever created; 0 = unlimited
};

/// Load-derived membership control: every `interval_slots` the policy
/// looks at queue depth (active sessions per live server), the degraded
/// share of the slot's solves (any ladder rung below full solve), and
/// posterior staleness risk (failovers since the last evaluation), then
/// joins or retires one server.  Decisions read only federation-internal
/// state — never the metrics registry — so an attached registry cannot
/// perturb the run (the obs-determinism contract).
struct AutoscaleConfig {
  bool enabled = false;
  int interval_slots = 10;  ///< evaluation cadence
  int cooldown_slots = 20;  ///< min slots between membership actions
  int min_servers = 2;
  int max_servers = 16;
  double target_sessions_per_server = 12.0;
  double high_watermark = 1.25;  ///< scale out above target * high
  double low_watermark = 0.5;    ///< scale in below target * low
  /// Scale out when more than this fraction of the window's solves ran on
  /// a degraded rung; scale-in additionally requires half this fraction.
  double degraded_fraction_out = 0.15;
  /// Server ids minted for autoscale joins start here (clear of the
  /// initial fleet and any scheduled membership events).
  std::uint64_t first_server_id = 1000;
};

/// Per-server capacities and seed come from the shared ClusterParams base
/// (each edge server is one "virtual cluster" of the paper, federated).
struct FederationConfig : emu::ClusterParams {
  FederationConfig() {
    seed = 7;
    // Federation slots price a shorter chunk train per user than the
    // single-cluster emulator (12 x 10 s vs 30 x 10 s).
    chunks_per_slot = 12;
  }

  /// Initial fleet size: servers 0..servers-1, weight 1.0 each unless
  /// `server_weights` overrides (indexed by initial server id).
  int servers = 4;
  std::vector<double> server_weights;

  /// Cap on users drawn from the trace's live sessions at start_slot.
  int users = 48;
  /// Trace sessions need at least this many viewers to contribute users.
  int min_viewers = 20;
  int start_slot = 144;  ///< trace slot where the run begins
  int slots = 48;        ///< federation slots to run

  double initial_battery_mean = 0.5;
  double initial_battery_std = 0.2;
  double observation_noise = 0.02;

  /// Per-user per-slot probability of roaming to a fresh placement draw.
  double mobility_rate = 0.0;
  /// Slots between checkpoints; 1 = every slot (fresh checkpoints, the
  /// bit-exact failover regime).  0 disables checkpointing entirely
  /// (every crash is a full cold restart).
  int checkpoint_interval = 1;
  /// Threads for the per-server serve and checkpoint phases, the calling
  /// thread included (the pool holds threads - 1 workers); 0 = hardware
  /// concurrency.
  unsigned threads = 1;

  std::vector<MembershipEvent> membership;

  DiurnalLoadConfig diurnal;
  AutoscaleConfig autoscale;

  /// Simulated wall seconds per federation slot (the clock the telemetry
  /// windows aggregate over — the paper's slots are one minute).
  double slot_seconds = 60.0;
  /// End-of-slot hook, called after the slot's metrics are exported with
  /// (slot, simulated time at slot end in ms).  The diurnal soak wires
  /// this to TelemetryExporter::publish(sim_time_ms); it must not mutate
  /// federation state.
  std::function<void(int slot, std::int64_t sim_time_ms)> slot_hook;
};

/// One server's totals over the run.
struct ServerReport {
  std::uint64_t id = 0;
  long slots_run = 0;
  long scheduled_users = 0;  ///< user-slots placed into the ILP
  long selected = 0;         ///< user-slots granted the transform
  double energy_mwh = 0.0;
  double objective = 0.0;
  long handoffs_in = 0;
  long handoffs_out = 0;
  long cold_restarts = 0;  ///< sessions rebuilt at the prior
  long failovers = 0;      ///< crashes of this logical server
};

/// Fleet-wide aggregate; every field is deterministic in (trace, config).
struct FederationReport {
  std::vector<ServerReport> servers;  // sorted by id, incl. departed ones
  int slots_run = 0;
  long users = 0;
  double total_energy_mwh = 0.0;
  double total_objective = 0.0;
  long total_selected = 0;
  double mean_anxiety = 0.0;
  long anxiety_samples = 0;
  long handoffs = 0;          ///< successful session transfers
  long handoff_failures = 0;  ///< transfers that fell back to cold restart
  long failovers = 0;
  long placement_moves = 0;   ///< users moved by join/leave rebalancing
  long capacity_violations = 0;  ///< schedules breaking a capacity row (0!)
  long arrivals = 0;           ///< diurnal mid-run viewer arrivals
  long sessions_started = 0;   ///< session attaches (initial + re-attach)
  long sessions_ended = 0;     ///< orderly session closes
  /// Active viewers left without a serving session after a reconcile —
  /// the zero-lost-sessions SLO counts exactly this.
  long sessions_lost = 0;
  long autoscale_joins = 0;
  long autoscale_leaves = 0;
  int peak_servers = 0;        ///< most live servers at any slot
  long degraded_solves = 0;    ///< server-slots solved below kFullSolve
  long total_solves = 0;       ///< server-slots that ran the scheduler
  /// FNV-1a digest over every user's end state (battery, posterior,
  /// watch-time bit patterns) — one number that differs iff any of it
  /// does; the bit-exactness tests compare it.
  std::uint64_t state_digest = 0;
};

/// Runs the fleet.  Construct once, run() replays the whole scenario.
class Federation {
 public:
  Federation(FederationConfig config, const trace::Trace& trace,
             const core::Scheduler& scheduler, core::RunContext context);
  ~Federation();

  FederationReport run();

  /// The replicated checkpoints as run() left them: the latest frame of
  /// every live server that has checkpointed (retired servers' are dropped).
  const CheckpointStore& checkpoint_store() const { return checkpoints_; }

 private:
  struct EdgeServer;
  struct FleetUser;
  struct Counters;
  struct ServeScratch;

  void setup_users();
  void setup_servers();
  EdgeServer& server(std::uint64_t id);
  void spawn_arrivals(int slot, FederationReport& report);
  void handle_crashes(int slot, FederationReport& report);
  void reconcile_placement(int slot, FederationReport& report);
  /// Debug check: live_ ascends, and every user off it is unplaced and
  /// inactive.
  bool closed_users_stay_closed() const;
  void serve_slot(int slot, FederationReport& report,
                  double& anxiety_accumulator);
  void evaluate_autoscale(int slot, FederationReport& report);
  void take_checkpoints(int slot);

  FederationConfig config_;
  const trace::Trace& trace_;
  const core::Scheduler& scheduler_;
  core::RunContext context_;
  Placement placement_;
  SessionHandoff handoff_;
  CheckpointStore checkpoints_;
  std::vector<FleetUser> users_;
  /// Ids of the users not yet closed, ascending.  A user is closed once
  /// they are inactive and unplaced, and that is for good (`watching`
  /// never turns back on and batteries never recharge), so every per-slot
  /// walk over the audience walks this list instead of users_.
  std::vector<std::uint32_t> live_;
  std::map<std::uint64_t, std::unique_ptr<EdgeServer>> servers_;
  std::map<std::uint64_t, ServerReport> departed_;  ///< reports of left servers
  /// Per-server phase helpers (threads - 1 of them), built once; null
  /// when the calling thread serves alone.
  std::unique_ptr<common::ThreadPool> pool_;
  /// The serve phase's scratch, one per runner (the caller and each
  /// helper), indexed by parallel_for's runner id.
  std::vector<ServeScratch> serve_scratch_;
  /// Registry counters, each looked up on its first event.
  std::unique_ptr<Counters> counters_;

  /// Channel templates (genre, bitrate) the diurnal arrival process clones
  /// viewers from; captured once at setup from the trace.
  struct SessionSeed {
    media::Genre genre = media::Genre::kIrlChat;
    double bitrate_mbps = 3.0;
  };
  std::vector<SessionSeed> session_pool_;
  std::uint64_t next_auto_server_ = 0;  ///< next autoscale join id
  int last_scale_slot_ = -1 << 20;      ///< cooldown anchor
  long degraded_at_last_eval_ = 0;      ///< rung-window baselines
  long solves_at_last_eval_ = 0;
  long failovers_at_last_eval_ = 0;     ///< staleness guard baseline
};

}  // namespace lpvs::fleet
