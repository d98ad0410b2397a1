#include "lpvs/core/slot_kernel.hpp"

#include <cassert>

#include "lpvs/common/rng.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::core {
namespace {

constexpr std::uint64_t kBayesNoiseSalt = 0xBA1Eu;

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
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    rates[k] = kRateEstimator.rate(spec, chunks[k]).value;
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

}  // namespace lpvs::core
