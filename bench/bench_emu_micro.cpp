// Micro-benchmarks (google-benchmark) for the end-to-end machinery: survey
// extraction throughput, trace synthesis, one emulated slot at different
// VC sizes, the signaling cost arithmetic, checkpoint codecs, the
// fork-join the federation pays per phase, one member row's chunk
// pricing and gamma, and the stages schedule() runs outside the B&B.
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/common/thread_pool.hpp"
#include "lpvs/core/scheduler.hpp"
#include "lpvs/core/signaling.hpp"
#include "lpvs/core/slot_kernel.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/emu/emulator.hpp"
#include "lpvs/fleet/checkpoint.hpp"
#include "lpvs/obs/event_trace.hpp"
#include "lpvs/obs/metrics.hpp"
#include "lpvs/solver/solve_cache.hpp"
#include "lpvs/survey/lba_curve.hpp"
#include "lpvs/survey/population.hpp"
#include "lpvs/trace/trace.hpp"
#include "lpvs/transform/transform.hpp"

namespace {

void BM_SurveyExtraction(benchmark::State& state) {
  lpvs::common::Rng rng(1);
  const auto population =
      lpvs::survey::SyntheticPopulation().generate_paper_population(rng);
  for (auto _ : state) {
    lpvs::survey::LbaCurveExtractor extractor;
    extractor.add_population(population);
    benchmark::DoNotOptimize(extractor.extract());
  }
}
BENCHMARK(BM_SurveyExtraction);

void BM_PopulationGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    lpvs::common::Rng rng(++seed);
    benchmark::DoNotOptimize(
        lpvs::survey::SyntheticPopulation().generate(
            static_cast<int>(state.range(0)), rng));
  }
}
BENCHMARK(BM_PopulationGeneration)->Arg(500)->Arg(2032);

void BM_TraceSynthesis(benchmark::State& state) {
  lpvs::trace::TraceConfig config;
  config.channel_count = static_cast<int>(state.range(0));
  config.session_count = config.channel_count * 3;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lpvs::trace::TwitchLikeGenerator(config).generate(++seed));
  }
}
BENCHMARK(BM_TraceSynthesis)->Arg(100)->Arg(1566);

void BM_EmulatedRun(benchmark::State& state) {
  const lpvs::survey::AnxietyModel anxiety =
      lpvs::survey::AnxietyModel::reference();
  const lpvs::core::LpvsScheduler scheduler;
  lpvs::emu::EmulatorConfig config;
  config.group_size = static_cast<int>(state.range(0));
  config.slots = 4;
  config.chunks_per_slot = 15;
  config.enable_giveup = false;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    lpvs::emu::Emulator emulator(config, scheduler,
                                 lpvs::core::RunContext(anxiety));
    benchmark::DoNotOptimize(emulator.run());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EmulatedRun)->Arg(25)->Arg(50)->Arg(100)->Complexity();

// Same run with a live MetricsRegistry + EventTrace attached; the
// acceptance bar for the observability layer is <= 5% over BM_EmulatedRun
// at the same group size.
void BM_EmulatedRunObserved(benchmark::State& state) {
  const lpvs::survey::AnxietyModel anxiety =
      lpvs::survey::AnxietyModel::reference();
  const lpvs::core::LpvsScheduler scheduler;
  lpvs::emu::EmulatorConfig config;
  config.group_size = static_cast<int>(state.range(0));
  config.slots = 4;
  config.chunks_per_slot = 15;
  config.enable_giveup = false;
  lpvs::obs::MetricsRegistry registry;
  lpvs::obs::EventTrace trace;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    lpvs::emu::Emulator emulator(
        config, scheduler,
        lpvs::core::RunContext(anxiety, &registry, &trace));
    benchmark::DoNotOptimize(emulator.run());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EmulatedRunObserved)->Arg(25)->Arg(50)->Arg(100)->Complexity();

void BM_SignalingCost(benchmark::State& state) {
  const lpvs::core::SignalingCostModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.report_power(lpvs::core::ReportSchema{}, 30,
                           lpvs::common::kSlotLength));
  }
}
BENCHMARK(BM_SignalingCost);

/// A server's checkpoint as the federation takes it: `sessions` learned
/// posteriors with their last assignments.
lpvs::fleet::Checkpoint checkpoint_of(int sessions) {
  lpvs::common::Rng rng(7);
  lpvs::fleet::Checkpoint checkpoint;
  checkpoint.server = 3;
  checkpoint.slot = 600;
  checkpoint.slots_run = 600;
  for (int i = 0; i < sessions; ++i) {
    lpvs::bayes::GammaEstimator gamma;
    lpvs::bayes::NigGammaEstimator nig;
    for (int k = 0; k < 5; ++k) {
      const double observed = rng.uniform(0.13, 0.49);
      gamma.observe(observed);
      nig.observe(observed);
    }
    lpvs::fleet::SessionState& state = checkpoint.sessions.emplace_back();
    state.user = static_cast<std::uint64_t>(i);
    state.gamma = gamma.state();
    state.nig = nig.state();
    state.battery_fraction = rng.uniform();
    state.last_assignment = rng.bernoulli(0.5) ? 1 : 0;
    state.slots_served = 40;
  }
  return checkpoint;
}

/// Encoding alone: the Writer plus the FNV-1a seal, whose per-byte cost is
/// the floor of any encoder for this frame format.
void BM_CheckpointEncode(benchmark::State& state) {
  const lpvs::fleet::Checkpoint checkpoint =
      checkpoint_of(static_cast<int>(state.range(0)));
  const auto bytes = static_cast<std::int64_t>(checkpoint.encoded_size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(checkpoint.encode());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_CheckpointEncode)->Arg(50)->Arg(400);

/// What failover pays end to end: encode, then verify the seal and decode.
void BM_CheckpointRoundTrip(benchmark::State& state) {
  const lpvs::fleet::Checkpoint checkpoint =
      checkpoint_of(static_cast<int>(state.range(0)));
  const auto bytes = static_cast<std::int64_t>(checkpoint.encoded_size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lpvs::fleet::Checkpoint::decode(checkpoint.encode()));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_CheckpointRoundTrip)->Arg(50)->Arg(400);

/// The fork-join a federation slot pays twice (serve, then checkpoint):
/// one parallel_for over 9 empty tasks on a pool of `range(0)` workers.
/// Wall time, since the caller's share is spent waiting for the workers.
void BM_ParallelForForkJoin(benchmark::State& state) {
  lpvs::common::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<long> ran{0};
  for (auto _ : state) {
    lpvs::common::parallel_for(pool, 9, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(ran.load());
}
BENCHMARK(BM_ParallelForForkJoin)->Arg(1)->Arg(2)->UseRealTime();

/// A federation member row: one slot's 6 chunks of slot-kernel content on
/// the catalog's first LCD (range(0) = 0) or first OLED (1) panel.
struct MemberRow {
  explicit MemberRow(const benchmark::State& state) {
    const auto& catalog = lpvs::display::DeviceCatalog::standard();
    const auto wanted = state.range(0) == 0 ? lpvs::display::DisplayType::kLcd
                                            : lpvs::display::DisplayType::kOled;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (catalog.at(i).spec.type == wanted) {
        spec = catalog.at(i).spec;
        break;
      }
    }
    lpvs::core::slot_video_into(video, 1, 7, 3, lpvs::media::Genre::kMusic, 6,
                                3.0, 10.0);
    rates.resize(video.chunks.size());
    lpvs::core::price_chunks(spec, video.chunks, rates);
  }

  lpvs::display::DisplaySpec spec;
  lpvs::media::Video video;
  std::vector<double> rates;
};

/// p(kappa) of one row's chunks: what assembly prices per member.
void BM_PriceChunks(benchmark::State& state) {
  MemberRow row(state);
  for (auto _ : state) {
    lpvs::core::price_chunks(row.spec, row.video.chunks, row.rates);
    benchmark::DoNotOptimize(row.rates.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PriceChunks)->Arg(0)->Arg(1);

/// The realized gamma of one row from its priced chunks: what playback
/// computes per member.
void BM_VideoGamma(benchmark::State& state) {
  MemberRow row(state);
  const lpvs::transform::TransformEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.video_gamma(row.spec, row.video, row.rates));
  }
}
BENCHMARK(BM_VideoGamma)->Arg(0)->Arg(1);

/// One scheduling point for the stage benches.  range(0) = 0 is
/// fleet-sized: 46 devices and slack capacity, so Phase-1 takes every
/// eligible device.  range(0) = 1 is emulate-sized: 127 devices and a
/// compute row at 40% of demand, so capacity binds.  Each device plays 30
/// chunks of 10 s on a session-budget battery (a quarter of a 13 Wh one).
struct StagePoint {
  explicit StagePoint(const benchmark::State& state) {
    const bool binding = state.range(0) == 1;
    const std::size_t devices = binding ? 127 : 46;
    lpvs::common::Rng rng(binding ? 127 : 46);
    double total_compute = 0.0;
    for (std::size_t n = 0; n < devices; ++n) {
      lpvs::core::DeviceSlotInput& device = problem.devices.emplace_back();
      device.id = lpvs::common::DeviceId{static_cast<std::uint32_t>(n)};
      device.power_rates_mw.resize(30);
      device.chunk_durations_s.assign(30, 10.0);
      for (double& p : device.power_rates_mw) p = rng.uniform(300.0, 1200.0);
      device.battery_capacity_mwh = 0.25 * 13000.0;
      device.initial_energy_mwh =
          device.battery_capacity_mwh * rng.uniform(0.05, 1.0);
      device.gamma = rng.uniform(0.13, 0.49);
      device.compute_cost = rng.uniform(0.2, 1.2);
      device.storage_cost = rng.uniform(20.0, 200.0);
      total_compute += device.compute_cost;
    }
    problem.compute_capacity = binding ? 0.4 * total_compute : 1e9;
    problem.storage_capacity = 1e9;
    program = lpvs::core::phase1_program(problem);
    x = lpvs::solver::BranchAndBoundSolver(lpvs::core::scheduler_ilp_defaults())
            .solve(program)
            .x;
    // The previous slot's assignment: everyone when capacity is slack (the
    // usual fleet case), else this slot's optimum with every seventh
    // device flipped, as if the slot's deltas had moved the boundary.
    stale = x;
    for (std::size_t j = 0; j < stale.size(); ++j) {
      if (!binding) stale[j] = 1;
      if (binding && j % 7 == 0) stale[j] = 1 - stale[j];
    }
  }

  lpvs::core::SlotProblem problem;
  lpvs::solver::BinaryProgram program;
  std::vector<int> x;
  std::vector<int> stale;
};

/// Scoring the final selection: both trajectories of every selected device.
void BM_ScoreSelection(benchmark::State& state) {
  const StagePoint point(state);
  const lpvs::survey::AnxietyModel anxiety =
      lpvs::survey::AnxietyModel::reference();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lpvs::core::score_selection(point.problem, anxiety, point.x));
  }
}
BENCHMARK(BM_ScoreSelection)->Arg(0)->Arg(1);

/// The Phase-1 program (14): weights, capacity rows and eligibility.
void BM_Phase1Program(benchmark::State& state) {
  const StagePoint point(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lpvs::core::phase1_program(point.problem));
  }
}
BENCHMARK(BM_Phase1Program)->Arg(0)->Arg(1);

/// The warm-start incumbent: the previous assignment repaired against this
/// slot's program.
void BM_RepairAssignment(benchmark::State& state) {
  const StagePoint point(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lpvs::solver::repair_assignment(point.program, point.stale));
  }
}
BENCHMARK(BM_RepairAssignment)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
