#include "lpvs/core/slot_kernel.hpp"

#include <cassert>
#include <utility>

#include "lpvs/common/rng.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::core {
namespace {

constexpr std::uint64_t kBayesNoiseSalt = 0xBA1Eu;
// Slack on the capacity rows for floating-point accumulation.
constexpr double kCapacitySlack = 1e-9;

// The one pricing model (both are stateless, so threads may share them).
const media::PowerRateEstimator kRateEstimator;
const transform::ResourceModel kResources;

}  // namespace

void slot_video_into(media::Video& out, std::uint64_t seed,
                     std::uint64_t user, std::uint64_t slot,
                     media::Genre genre, int chunks, double bitrate_mbps,
                     double chunk_s) {
  common::Rng content_rng = common::derived_rng(seed, user, slot);
  media::ContentGenerator generator(content_rng());
  generator.generate_into(
      out, common::VideoId{static_cast<std::uint32_t>(user * 100000u + slot)},
      genre, chunks, bitrate_mbps, common::Seconds{chunk_s});
}

void price_chunks(const display::DisplaySpec& spec,
                  std::span<const media::VideoChunk> chunks,
                  std::span<double> rates) {
  assert(rates.size() == chunks.size());
  const display::DevicePowerModel& model = kRateEstimator.model();
  const display::DevicePowerModel::Panel panel = model.panel(spec);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    rates[k] =
        model.playback_mw(panel, chunks[k].stats, chunks[k].bitrate_mbps);
  }
}

void fill_slot_row(DeviceSlotInput& row, common::DeviceId id,
                   const display::DisplaySpec& spec, const media::Video& video,
                   std::span<const double> rates) {
  assert(rates.size() <= video.chunks.size());
  row.id = id;
  row.power_rates_mw.assign(rates.begin(), rates.end());
  row.chunk_durations_s.clear();
  for (std::size_t k = 0; k < rates.size(); ++k) {
    row.chunk_durations_s.push_back(video.chunks[k].duration.value);
  }
  row.compute_cost = kResources.compute_cost(spec, video);
  row.storage_cost = kResources.storage_cost(video);
  row.sla_weight = 1.0;  // standard tier
}

std::optional<double> observe_gamma(bayes::GammaEstimator& gamma,
                                    bayes::NigGammaEstimator& nig,
                                    double true_gamma, double noise_std,
                                    std::uint64_t seed, std::uint64_t user,
                                    std::uint64_t slot,
                                    const fault::FaultInjector* faults) {
  common::Rng noise_rng =
      common::derived_rng(seed ^ kBayesNoiseSalt, user, slot);
  double observed = true_gamma + noise_rng.normal(0.0, noise_std);
  if (faults != nullptr &&
      faults->site_enabled(fault::FaultSite::kBayesReport)) {
    const fault::FaultDecision decision =
        faults->decide(fault::FaultSite::kBayesReport, user, slot);
    if (decision.dropped()) return std::nullopt;
    if (decision.corrupted()) observed += decision.corrupt_factor;
  }
  gamma.observe(observed);
  nig.observe(observed);
  return observed;
}

void ClusterSlot::assemble(const SlotProblemConfig& config, std::uint64_t slot,
                           std::span<const SlotMember> members) {
  problem_.compute_capacity = config.compute_capacity;
  problem_.storage_capacity = config.storage_capacity_mb;
  problem_.lambda = config.lambda;
  // Rows past this cluster's size wait in spare_rows_ with their buffers;
  // videos past it stay put.
  std::vector<DeviceSlotInput>& rows = problem_.devices;
  while (rows.size() > members.size()) {
    spare_rows_.push_back(std::move(rows.back()));
    rows.pop_back();
  }
  while (rows.size() < members.size()) {
    if (spare_rows_.empty()) {
      rows.emplace_back();
    } else {
      rows.push_back(std::move(spare_rows_.back()));
      spare_rows_.pop_back();
    }
  }
  if (videos_.size() < members.size()) videos_.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const SlotMember& member = members[i];
    media::Video& video = videos_[i];
    slot_video_into(video, config.seed, member.user, slot, member.genre,
                    config.chunks_per_slot, member.bitrate_mbps,
                    config.chunk_seconds);
    rates_.resize(video.chunks.size());
    price_chunks(*member.spec, video.chunks, rates_);
    DeviceSlotInput& row = rows[i];
    fill_slot_row(row,
                  common::DeviceId{static_cast<std::uint32_t>(member.user)},
                  *member.spec, video, rates_);
    row.initial_energy_mwh = member.energy_mwh;
    row.battery_capacity_mwh = member.capacity_mwh;
    row.gamma = member.gamma;
  }
}

bool within_capacity(const SlotProblem& problem, const Schedule& schedule) {
  if (schedule.x.size() != problem.devices.size()) return false;
  double compute = 0.0;
  double storage = 0.0;
  for (std::size_t n = 0; n < schedule.x.size(); ++n) {
    if (schedule.x[n] == 0) continue;
    compute += problem.devices[n].compute_cost;
    storage += problem.devices[n].storage_cost;
  }
  return compute <= problem.compute_capacity + kCapacitySlack &&
         storage <= problem.storage_capacity + kCapacitySlack;
}

CheckedSchedule ClusterSlot::solve(const Scheduler& scheduler,
                                   const RunContext& context) const {
  CheckedSchedule checked{scheduler.schedule(problem_, context)};
  checked.within_capacity = within_capacity(problem_, checked.schedule);
  return checked;
}

}  // namespace lpvs::core
