// Tests for the slot-problem machinery: the information-compacting
// identities of SV-B (the heart of the paper's solution method) checked as
// exact algebraic properties against forward simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/core/slot_kernel.hpp"
#include "lpvs/core/slot_problem.hpp"
#include "lpvs/survey/lba_curve.hpp"

namespace lpvs::core {
namespace {

DeviceSlotInput random_device(common::Rng& rng, std::size_t chunks = 30,
                              bool equal_durations = false) {
  DeviceSlotInput device;
  device.id = common::DeviceId{static_cast<std::uint32_t>(rng())};
  device.power_rates_mw.resize(chunks);
  device.chunk_durations_s.resize(chunks);
  for (std::size_t k = 0; k < chunks; ++k) {
    device.power_rates_mw[k] = rng.uniform(300.0, 1200.0);
    device.chunk_durations_s[k] =
        equal_durations ? 10.0 : rng.uniform(4.0, 12.0);
  }
  device.battery_capacity_mwh = rng.uniform(2500.0, 5000.0);
  device.initial_energy_mwh =
      device.battery_capacity_mwh * rng.uniform(0.05, 1.0);
  device.gamma = rng.uniform(0.13, 0.49);
  device.compute_cost = rng.uniform(0.2, 1.2);
  device.storage_cost = rng.uniform(20.0, 200.0);
  return device;
}

const survey::AnxietyModel& anxiety() {
  static const survey::AnxietyModel model = survey::AnxietyModel::reference();
  return model;
}

TEST(ForwardEvaluation, TransformScalesPowerByGamma) {
  common::Rng rng(1);
  const DeviceSlotInput device = random_device(rng);
  const DeviceEvaluation off = evaluate_forward(device, false, anxiety());
  const DeviceEvaluation on = evaluate_forward(device, true, anxiety());
  EXPECT_NEAR(on.sum_psi_mw, (1.0 - device.gamma) * off.sum_psi_mw, 1e-9);
}

TEST(ForwardEvaluation, TransformNeverIncreasesAnxietyOrEnergy) {
  common::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const DeviceSlotInput device = random_device(rng);
    const DeviceEvaluation off = evaluate_forward(device, false, anxiety());
    const DeviceEvaluation on = evaluate_forward(device, true, anxiety());
    EXPECT_LE(on.energy_spent_mwh, off.energy_spent_mwh + 1e-9);
    EXPECT_LE(on.sum_anxiety, off.sum_anxiety + 1e-9);
    EXPECT_GE(on.final_energy_mwh, off.final_energy_mwh - 1e-9);
  }
}

TEST(ForwardEvaluation, EnergyConservation) {
  common::Rng rng(3);
  const DeviceSlotInput device = random_device(rng);
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_NEAR(device.initial_energy_mwh,
              eval.final_energy_mwh + eval.energy_spent_mwh, 1e-9);
}

TEST(ForwardEvaluation, DeadBatteryFlagged) {
  common::Rng rng(4);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = 0.1;  // dies almost immediately
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_FALSE(eval.battery_survives);
  EXPECT_NEAR(eval.final_energy_mwh, 0.0, 1e-12);
  EXPECT_NEAR(eval.energy_spent_mwh, 0.1, 1e-9);
}

TEST(ForwardEvaluation, EmptyChunkListIsNeutral) {
  DeviceSlotInput device;
  device.power_rates_mw.clear();
  device.chunk_durations_s.clear();
  device.initial_energy_mwh = 1000.0;
  device.battery_capacity_mwh = 2000.0;
  const DeviceEvaluation eval = evaluate_forward(device, true, anxiety());
  EXPECT_DOUBLE_EQ(eval.sum_psi_mw, 0.0);
  EXPECT_DOUBLE_EQ(eval.sum_anxiety, 0.0);
  EXPECT_DOUBLE_EQ(eval.final_energy_mwh, 1000.0);
  EXPECT_TRUE(eval.battery_survives);
}

/// The paper's equation (10): sum_kappa e(kappa) telescopes into the closed
/// form (10d).  Exact identity (no flooring), any durations, any gamma.
class CompactionIdentity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompactionIdentity, EnergySumClosedFormEqualsForward) {
  common::Rng rng(GetParam());
  for (bool transformed : {false, true}) {
    for (bool equal_durations : {false, true}) {
      const std::size_t chunks =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 59));
      const DeviceSlotInput device =
          random_device(rng, chunks, equal_durations);
      EXPECT_NEAR(energy_sum_closed_form(device, transformed),
                  energy_sum_forward(device, transformed),
                  1e-7 * std::fabs(energy_sum_forward(device, transformed)) +
                      1e-7)
          << "chunks=" << chunks << " transformed=" << transformed;
    }
  }
}

TEST_P(CompactionIdentity, CompactedObjectiveEqualsForwardObjective) {
  common::Rng rng(GetParam() + 1000);
  for (bool transformed : {false, true}) {
    for (double lambda : {0.0, 500.0, 2000.0, 10000.0}) {
      const std::size_t chunks =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 59));
      const DeviceSlotInput device = random_device(rng, chunks);
      const double forward =
          evaluate_forward(device, transformed, anxiety()).objective(lambda);
      const double compacted =
          compacted_objective(device, transformed, anxiety(), lambda);
      EXPECT_NEAR(forward, compacted, 1e-6 * std::fabs(forward) + 1e-6)
          << "lambda=" << lambda << " transformed=" << transformed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionIdentity,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(CompactedConstraint, SlackPositiveForHealthyBattery) {
  common::Rng rng(5);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = device.battery_capacity_mwh;  // full battery
  EXPECT_GT(compacted_constraint_slack(device), 0.0);
  EXPECT_TRUE(eligible_for_transform(device));
}

TEST(CompactedConstraint, SlackNegativeForDyingBattery) {
  common::Rng rng(6);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = 0.01;
  EXPECT_LT(compacted_constraint_slack(device), 0.0);
  EXPECT_FALSE(eligible_for_transform(device));
}

TEST(CompactedConstraint, MatchesLiteralFormula) {
  // Hand-computable instance: 2 chunks, p = 360 mW, 10 s each, gamma 0.5.
  DeviceSlotInput device;
  device.power_rates_mw = {360.0, 360.0};
  device.chunk_durations_s = {10.0, 10.0};
  device.gamma = 0.5;
  device.battery_capacity_mwh = 100.0;
  device.initial_energy_mwh = 10.0;
  // psi = 0.5 mWh per chunk (transformed: 180 mW x 10 s).
  // closed form: 2*10 - (2-1)*0.5 - (2-2)*0.5 = 19.5.
  EXPECT_NEAR(energy_sum_closed_form(device, true), 19.5, 1e-12);
  // rhs = gamma * sum p*Delta = 0.5 * 2 mWh = 1.0; slack = 18.5.
  EXPECT_NEAR(compacted_constraint_slack(device), 18.5, 1e-12);
}

TEST(Eligibility, RejectsEmptyAndZeroGamma) {
  common::Rng rng(7);
  DeviceSlotInput no_chunks = random_device(rng, 1);
  no_chunks.power_rates_mw.clear();
  no_chunks.chunk_durations_s.clear();
  EXPECT_FALSE(eligible_for_transform(no_chunks));

  DeviceSlotInput no_gamma = random_device(rng);
  no_gamma.gamma = 0.0;
  EXPECT_FALSE(eligible_for_transform(no_gamma));
}

TEST(UntransformedEnergy, SumsChunkEnergies) {
  DeviceSlotInput device;
  device.power_rates_mw = {720.0, 360.0};
  device.chunk_durations_s = {10.0, 20.0};
  device.initial_energy_mwh = 100.0;
  device.battery_capacity_mwh = 100.0;
  // 720*10/3600 + 360*20/3600 = 2 + 2 = 4 mWh.
  EXPECT_NEAR(untransformed_energy_mwh(device), 4.0, 1e-12);
}

TEST(ObjectiveStructure, LambdaZeroIgnoresAnxiety) {
  common::Rng rng(8);
  const DeviceSlotInput device = random_device(rng);
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_DOUBLE_EQ(eval.objective(0.0), eval.sum_psi_mw);
}

TEST(ObjectiveStructure, ObjectiveMonotoneInLambdaForAnxiousDevice) {
  common::Rng rng(9);
  DeviceSlotInput device = random_device(rng);
  device.initial_energy_mwh = device.battery_capacity_mwh * 0.15;
  const DeviceEvaluation eval = evaluate_forward(device, false, anxiety());
  EXPECT_GT(eval.sum_anxiety, 0.0);
  EXPECT_LT(eval.objective(100.0), eval.objective(1000.0));
}

TEST(ObjectiveStructure, LowBatteryDeviceBenefitsMoreFromTransform) {
  // The lambda-weighted benefit of serving a near-20% device exceeds that
  // of an identical device at 80% battery: the SIII-C insight.
  DeviceSlotInput low;
  low.power_rates_mw.assign(30, 700.0);
  low.chunk_durations_s.assign(30, 10.0);
  low.battery_capacity_mwh = 3000.0;
  low.initial_energy_mwh = 3000.0 * 0.23;
  low.gamma = 0.3;
  DeviceSlotInput high = low;
  high.initial_energy_mwh = 3000.0 * 0.8;

  const double lambda = 5000.0;
  const double benefit_low =
      compacted_objective(low, false, anxiety(), lambda) -
      compacted_objective(low, true, anxiety(), lambda);
  const double benefit_high =
      compacted_objective(high, false, anxiety(), lambda) -
      compacted_objective(high, true, anxiety(), lambda);
  EXPECT_GT(benefit_low, benefit_high);
}

// One walk per purpose: the paired walks carry two trajectories at once,
// and each must keep the bits of the walk it replaces.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const DeviceEvaluation& want, const DeviceEvaluation& got,
                      const std::string& where) {
  EXPECT_EQ(bits(want.sum_psi_mw), bits(got.sum_psi_mw)) << where;
  EXPECT_EQ(bits(want.sum_anxiety), bits(got.sum_anxiety)) << where;
  EXPECT_EQ(bits(want.final_energy_mwh), bits(got.final_energy_mwh)) << where;
  EXPECT_EQ(bits(want.energy_spent_mwh), bits(got.energy_spent_mwh)) << where;
  EXPECT_EQ(want.battery_survives, got.battery_survives) << where;
}

/// Randomized devices of 0..40 chunks plus the edge cases: a battery that
/// empties mid-slot, gamma = 0, no chunks, one chunk.
std::vector<std::pair<std::string, DeviceSlotInput>> walk_cases() {
  std::vector<std::pair<std::string, DeviceSlotInput>> cases;
  common::Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    const auto chunks = static_cast<std::size_t>(rng.uniform_int(0, 40));
    cases.emplace_back("random " + std::to_string(i),
                       random_device(rng, chunks, i % 2 == 0));
  }
  DeviceSlotInput empties = random_device(rng, 30);
  empties.initial_energy_mwh = 6.0;  // a chunk draws 0.17-4 mWh
  cases.emplace_back("empties mid-slot", empties);
  DeviceSlotInput no_gamma = random_device(rng, 30);
  no_gamma.gamma = 0.0;
  cases.emplace_back("gamma 0", no_gamma);
  cases.emplace_back("0 chunks", random_device(rng, 0));
  cases.emplace_back("1 chunk", random_device(rng, 1));
  return cases;
}

TEST(SharedWalks, EmptyingCaseEmptiesMidSlot) {
  for (const auto& [name, device] : walk_cases()) {
    if (name != "empties mid-slot") continue;
    EXPECT_FALSE(evaluate_forward(device, false, anxiety()).battery_survives);
    EXPECT_FALSE(evaluate_forward(device, true, anxiety()).battery_survives);
  }
}

TEST(SharedWalks, ForwardPairMatchesTwoForwardWalksBitForBit) {
  for (const auto& [name, device] : walk_cases()) {
    const DeviceEvaluationPair pair = evaluate_forward_pair(device, anxiety());
    expect_same_bits(evaluate_forward(device, false, anxiety()),
                     pair.untransformed, name + " untransformed");
    expect_same_bits(evaluate_forward(device, true, anxiety()),
                     pair.transformed, name + " transformed");
  }
}

TEST(SharedWalks, BenefitMatchesTwoCompactedWalksBitForBit) {
  for (const double lambda : {0.0, 2000.0, 2000.0 * 1.7}) {
    for (const auto& [name, device] : walk_cases()) {
      const double want =
          compacted_objective(device, false, anxiety(), lambda) -
          compacted_objective(device, true, anxiety(), lambda);
      EXPECT_EQ(bits(want),
                bits(transform_benefit(device, anxiety(), lambda)))
          << name << " lambda " << lambda;
    }
  }
}

/// Constraint (11) and the untransformed energy as separate walks, the
/// way they were written before one walk gathered them.
double reference_untransformed_mwh(const DeviceSlotInput& device) {
  double total = 0.0;
  for (std::size_t k = 0; k < device.chunk_count(); ++k) {
    total += device.power_rates_mw[k] * device.chunk_durations_s[k] / 3600.0;
  }
  return total;
}

bool reference_eligible(const DeviceSlotInput& device) {
  if (device.chunk_count() == 0) return false;
  if (device.gamma <= 0.0) return false;
  const auto k_m = static_cast<double>(device.chunk_count());
  double weighted = 0.0;
  double rhs = 0.0;
  for (std::size_t k = 0; k < device.chunk_count(); ++k) {
    const double psi = (1.0 - device.gamma) * device.power_rates_mw[k];
    weighted += (k_m - static_cast<double>(k + 1)) *
                (psi * device.chunk_durations_s[k] / 3600.0);
  }
  for (std::size_t k = 0; k < device.chunk_count(); ++k) {
    rhs += device.gamma *
           (device.power_rates_mw[k] * device.chunk_durations_s[k] / 3600.0);
  }
  return (k_m * device.initial_energy_mwh - weighted) - rhs >= 0.0;
}

TEST(SharedWalks, Phase1TermsMatchTheSeparateWalksBitForBit) {
  int eligible = 0;
  int ineligible = 0;
  std::vector<std::pair<std::string, DeviceSlotInput>> cases = walk_cases();
  // Batteries around the constraint (11) boundary: both verdicts occur.
  common::Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    DeviceSlotInput device = random_device(rng, 30);
    device.initial_energy_mwh = rng.uniform(0.0, 120.0);
    cases.emplace_back("boundary " + std::to_string(i), device);
  }
  for (const auto& [name, device] : cases) {
    const Phase1Terms terms = phase1_terms(device);
    EXPECT_EQ(bits(untransformed_energy_mwh(device)),
              bits(terms.untransformed_energy_mwh))
        << name;
    EXPECT_EQ(bits(reference_untransformed_mwh(device)),
              bits(terms.untransformed_energy_mwh))
        << name;
    EXPECT_EQ(eligible_for_transform(device), terms.eligible) << name;
    EXPECT_EQ(reference_eligible(device), terms.eligible) << name;
    (terms.eligible ? eligible : ineligible) += 1;
  }
  EXPECT_GT(eligible, 0);
  EXPECT_GT(ineligible, 3);
}

// The slot kernel (slot_kernel.hpp): the per-slot decisions the emulator,
// the federation and the serving daemon share.

/// An OLED panel: its power follows the content, so rates tell videos apart.
const display::DisplaySpec& kernel_spec() {
  const auto& catalog = display::DeviceCatalog::standard();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.at(i).spec.type == display::DisplayType::kOled) {
      return catalog.at(i).spec;
    }
  }
  return catalog.at(0).spec;
}

TEST(SlotKernel, ContentIsAPureFunctionOfSeedUserSlot) {
  media::Video a;
  media::Video b;
  slot_video_into(a, 7, 3, 12, media::Genre::kMovie, 5, 2.5, 10.0);
  slot_video_into(b, 7, 3, 12, media::Genre::kMovie, 5, 2.5, 10.0);
  EXPECT_EQ(a.id.value, 3u * 100000u + 12u);
  ASSERT_EQ(a.chunks.size(), 5u);
  std::vector<double> rates_a(5);
  std::vector<double> rates_b(5);
  price_chunks(kernel_spec(), a.chunks, rates_a);
  price_chunks(kernel_spec(), b.chunks, rates_b);
  EXPECT_EQ(rates_a, rates_b);

  slot_video_into(b, 7, 3, 13, media::Genre::kMovie, 5, 2.5, 10.0);
  price_chunks(kernel_spec(), b.chunks, rates_b);
  EXPECT_NE(rates_a, rates_b);
}

TEST(SlotKernel, RowTakesTheKnownPrefix) {
  media::Video video;
  slot_video_into(video, 1, 0, 0, media::Genre::kIrlChat, 6, 3.0, 10.0);
  std::vector<double> rates(6);
  price_chunks(kernel_spec(), video.chunks, rates);
  DeviceSlotInput row;
  fill_slot_row(row, common::DeviceId{9}, kernel_spec(), video,
                std::span<const double>(rates).first(4));
  EXPECT_EQ(row.id.value, 9u);
  EXPECT_EQ(row.power_rates_mw,
            std::vector<double>(rates.begin(), rates.begin() + 4));
  EXPECT_EQ(row.chunk_durations_s, std::vector<double>(4, 10.0));
  EXPECT_GT(row.compute_cost, 0.0);
  EXPECT_GT(row.storage_cost, 0.0);
}

/// p(kappa) as the power models priced each chunk before a panel's terms
/// were computed once: every term from the spec, in the same evaluation
/// order ((c * mp) * b) * w, (r + g) + b and ((display + cpu) + radio) + base.
double per_chunk_rate_mw(const display::DisplaySpec& spec,
                         const media::VideoChunk& chunk) {
  const display::DevicePowerModel model;
  const double area = spec.area_sq_inches();
  double display_mw = 0.0;
  if (spec.type == display::DisplayType::kLcd) {
    const display::LcdPowerModel::Coefficients& c =
        model.lcd().coefficients();
    const double level = std::clamp(spec.brightness, 0.0, 1.0);
    const double backlight = (c.backlight_floor_mw_per_sq_in +
                              c.backlight_range_mw_per_sq_in * level) *
                             area;
    display_mw = backlight + c.panel_mw_per_sq_in * area;
  } else {
    const display::OledPowerModel::Coefficients& c =
        model.oled().coefficients();
    const double r = std::clamp(chunk.stats.mean_r, 0.0, 1.0);
    const double g = std::clamp(chunk.stats.mean_g, 0.0, 1.0);
    const double b = std::clamp(chunk.stats.mean_b, 0.0, 1.0);
    const double weighted =
        c.red_weight * r + c.green_weight * g + c.blue_weight * b;
    const double megapixels =
        static_cast<double>(spec.pixel_count()) / 1.0e6;
    const double emission = c.mw_per_megapixel_unit * megapixels *
                            std::clamp(spec.brightness, 0.0, 1.0) * weighted;
    display_mw = emission + c.static_mw_per_sq_in * area;
  }
  const display::DevicePowerModel::NonDisplayCoefficients& rest =
      model.rest();
  const double bitrate = std::max(chunk.bitrate_mbps, 0.0);
  return display_mw + (rest.cpu_decode_mw + rest.cpu_per_mbps_mw * bitrate) +
         (rest.radio_mw + rest.radio_per_mbps_mw * bitrate) + rest.base_mw;
}

TEST(SlotKernel, PanelPricingIsBitIdenticalToThePerChunkFormulas) {
  std::vector<media::VideoChunk> chunks;
  for (int g = 0; g < media::kGenreCount; ++g) {
    media::Video video;
    slot_video_into(video, 5, static_cast<std::uint64_t>(g), 3,
                    static_cast<media::Genre>(g), 30, 1.5 + g, 10.0);
    chunks.insert(chunks.end(), video.chunks.begin(), video.chunks.end());
  }
  // Hand-made stats outside the valid ranges: negative channels, values
  // above 1, peak below mean; one chunk at a negative bitrate.
  const display::FrameStats odd[] = {
      {-0.2, -0.1, 0.3, -0.05, 0.4},
      {1.3, 1.2, 1.5, 0.9, 1.8},
      {0.7, 0.6, 0.8, 0.7, 0.2},
      {0.5, 0.4, -0.3, 1.4, -0.1},
  };
  for (std::size_t i = 0; i < std::size(odd); ++i) {
    media::VideoChunk chunk;
    chunk.stats = odd[i];
    chunk.bitrate_mbps = i == 0 ? -1.0 : 4.0;
    chunks.push_back(chunk);
  }

  std::vector<display::DisplaySpec> specs = {
      {display::DisplayType::kLcd, 5.0, 720, 1280, 400.0, 1.2},
      {display::DisplayType::kOled, 6.0, 1440, 3200, 800.0, 1.2},
      {display::DisplayType::kOled, 6.0, 1440, 3200, 800.0, -0.1}};
  const display::DeviceCatalog& catalog = display::DeviceCatalog::standard();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    specs.push_back(catalog.at(i).spec);
  }

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const display::DevicePowerModel model;
  const media::PowerRateEstimator estimator;
  std::vector<double> rates(chunks.size());
  for (const display::DisplaySpec& spec : specs) {
    price_chunks(spec, chunks, rates);
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      const media::VideoChunk& chunk = chunks[k];
      const std::uint64_t want = bits(per_chunk_rate_mw(spec, chunk));
      EXPECT_EQ(bits(rates[k]), want) << "chunk " << k;
      EXPECT_EQ(bits(estimator.rate(spec, chunk).value), want);
      EXPECT_EQ(bits(model.playback_power(spec, chunk.stats,
                                          chunk.bitrate_mbps)
                         .value),
                want);
    }
  }
}

struct Played {
  PlaybackEnd end;
  long samples = 0;
  double drawn_mwh = 0.0;
  double watch_minutes = 0.0;
};

Played play(battery::Battery battery, int giveup_percent) {
  media::Video video;
  slot_video_into(video, 1, 0, 0, media::Genre::kSports, 5, 3.0, 10.0);
  std::vector<double> rates(5);
  price_chunks(kernel_spec(), video.chunks, rates);
  Played played;
  double anxiety_sum = 0.0;
  played.end = play_slot(battery, video, rates, /*transformed=*/false, 0.3,
                         giveup_percent, anxiety(), anxiety_sum,
                         played.samples, played.watch_minutes,
                         [&](double mwh) { played.drawn_mwh += mwh; });
  return played;
}

TEST(SlotKernel, DepletionStopsPlaybackBeforeTheGiveUpCheck) {
  // The first chunk empties the battery and also crosses the give-up
  // level: depletion is what ends the slot.
  const Played empty =
      play(battery::Battery(common::MilliwattHours{0.01}, 1.0), 50);
  EXPECT_EQ(empty.end, PlaybackEnd::kDepleted);
  EXPECT_EQ(empty.samples, 1);
  EXPECT_DOUBLE_EQ(empty.drawn_mwh, 0.01);

  const Played gave_up =
      play(battery::Battery(common::MilliwattHours{10000.0}, 0.5001), 50);
  EXPECT_EQ(gave_up.end, PlaybackEnd::kGaveUp);
  EXPECT_EQ(gave_up.samples, 1);

  // Give-up level 0: the user watches the whole slot.
  const Played watched =
      play(battery::Battery(common::MilliwattHours{10000.0}, 0.5001), 0);
  EXPECT_EQ(watched.end, PlaybackEnd::kWatching);
  EXPECT_EQ(watched.samples, 5);
  EXPECT_DOUBLE_EQ(watched.watch_minutes, 5.0 * 10.0 / 60.0);
}

TEST(SlotKernel, LostGammaReportLeavesBothPosteriorsUnmoved) {
  bayes::GammaEstimator gamma;
  bayes::NigGammaEstimator nig;
  const double prior_gamma = gamma.expected_gamma();
  const double prior_nig = nig.expected_gamma();

  fault::FaultInjector::Config config;
  config.seed = 5;
  config.site(fault::FaultSite::kBayesReport).drop = 1.0;
  const fault::FaultInjector lossy(config);
  EXPECT_FALSE(
      observe_gamma(gamma, nig, 0.3, 0.02, 11, 4, 2, &lossy).has_value());
  EXPECT_EQ(gamma.expected_gamma(), prior_gamma);
  EXPECT_EQ(nig.expected_gamma(), prior_nig);

  // Delivered: the same (seed, user, slot) draws the same noise, and both
  // posteriors move.
  bayes::GammaEstimator other_gamma;
  bayes::NigGammaEstimator other_nig;
  const std::optional<double> observed =
      observe_gamma(gamma, nig, 0.3, 0.02, 11, 4, 2, nullptr);
  ASSERT_TRUE(observed.has_value());
  EXPECT_EQ(observe_gamma(other_gamma, other_nig, 0.3, 0.02, 11, 4, 2,
                          nullptr),
            observed);
  EXPECT_NE(gamma.expected_gamma(), prior_gamma);
  EXPECT_NE(nig.expected_gamma(), prior_nig);
}

// The cluster-slot step (ClusterSlot): the daemon's and the federation's
// one assembled, solved and checked slot.

SlotProblemConfig step_config() {
  return SlotProblemConfig{}.with_seed(17).with_chunks_per_slot(6);
}

std::vector<SlotMember> step_members(std::size_t count, std::uint64_t first) {
  const auto& catalog = display::DeviceCatalog::standard();
  std::vector<SlotMember> members;
  for (std::size_t i = 0; i < count; ++i) {
    members.push_back(SlotMember{
        .user = first + 3 * i,
        .spec = &catalog.at(i % catalog.size()).spec,
        .genre = static_cast<media::Genre>(i % media::kGenreCount),
        .bitrate_mbps = 2.0 + static_cast<double>(i),
        .energy_mwh = 1000.0 + 250.0 * static_cast<double>(i),
        .capacity_mwh = 3000.0 + 100.0 * static_cast<double>(i),
        .gamma = 0.2 + 0.05 * static_cast<double>(i)});
  }
  return members;
}

/// Selects every device (pick 1) or none (pick 0), scored like LPVS.
class FixedScheduler : public Scheduler {
 public:
  explicit FixedScheduler(int pick) : pick_(pick) {}
  std::string name() const override { return "fixed"; }
  Schedule schedule(const SlotProblem& problem,
                    const RunContext& context) const override {
    return score_selection(problem, context.anxiety_model(),
                           std::vector<int>(problem.devices.size(), pick_));
  }

 private:
  int pick_;
};

TEST(SlotKernel, ClusterSlotRowsEqualTheHandRunKernel) {
  const SlotProblemConfig config =
      step_config().with_compute_capacity(7.5).with_lambda(1500.0);
  const std::vector<SlotMember> members = step_members(4, 5);
  ClusterSlot step;
  step.assemble(config, 9, members);

  const SlotProblem& problem = step.problem();
  EXPECT_EQ(problem.compute_capacity, 7.5);
  EXPECT_EQ(problem.storage_capacity, config.storage_capacity_mb);
  EXPECT_EQ(problem.lambda, 1500.0);
  ASSERT_EQ(problem.devices.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const SlotMember& member = members[i];
    media::Video video;
    slot_video_into(video, config.seed, member.user, 9, member.genre,
                    config.chunks_per_slot, member.bitrate_mbps,
                    config.chunk_seconds);
    std::vector<double> rates(video.chunks.size());
    price_chunks(*member.spec, video.chunks, rates);
    DeviceSlotInput want;
    fill_slot_row(want,
                  common::DeviceId{static_cast<std::uint32_t>(member.user)},
                  *member.spec, video, rates);

    const DeviceSlotInput& row = problem.devices[i];
    EXPECT_EQ(row.id.value, want.id.value);
    EXPECT_EQ(row.power_rates_mw, want.power_rates_mw);
    EXPECT_EQ(row.chunk_durations_s, want.chunk_durations_s);
    EXPECT_EQ(row.compute_cost, want.compute_cost);
    EXPECT_EQ(row.storage_cost, want.storage_cost);
    EXPECT_EQ(row.sla_weight, want.sla_weight);
    EXPECT_EQ(row.initial_energy_mwh, member.energy_mwh);
    EXPECT_EQ(row.battery_capacity_mwh, member.capacity_mwh);
    EXPECT_EQ(row.gamma, member.gamma);
    EXPECT_EQ(step.video(i).id.value, video.id.value);
    ASSERT_EQ(step.video(i).chunks.size(), video.chunks.size());
    std::vector<double> step_rates(video.chunks.size());
    price_chunks(*member.spec, step.video(i).chunks, step_rates);
    EXPECT_EQ(step_rates, rates);
  }
}

TEST(SlotKernel, ClusterSlotLeavesNoStaleRowOrVideo) {
  ClusterSlot reused;
  reused.assemble(step_config(), 3, step_members(5, 100));
  const std::vector<SlotMember> fewer = step_members(2, 40);
  reused.assemble(step_config(), 4, fewer);
  ClusterSlot fresh;
  fresh.assemble(step_config(), 4, fewer);

  ASSERT_EQ(reused.problem().devices.size(), 2u);
  for (std::size_t i = 0; i < fewer.size(); ++i) {
    const DeviceSlotInput& row = reused.problem().devices[i];
    const DeviceSlotInput& want = fresh.problem().devices[i];
    EXPECT_EQ(row.id.value, want.id.value);
    EXPECT_EQ(row.power_rates_mw, want.power_rates_mw);
    EXPECT_EQ(row.chunk_durations_s, want.chunk_durations_s);
    EXPECT_EQ(row.compute_cost, want.compute_cost);
    EXPECT_EQ(row.storage_cost, want.storage_cost);
    EXPECT_EQ(row.initial_energy_mwh, want.initial_energy_mwh);
    EXPECT_EQ(row.gamma, want.gamma);
    EXPECT_EQ(reused.video(i).id.value, fresh.video(i).id.value);
    EXPECT_EQ(reused.video(i).chunks.size(), fresh.video(i).chunks.size());
  }
  // A schedule sized for the old cluster no longer fits the problem.
  Schedule stale;
  stale.x.assign(5, 0);
  EXPECT_FALSE(within_capacity(reused.problem(), stale));
}

TEST(SlotKernel, ClusterSlotReusedAcrossSizesEqualsAFreshStep) {
  // One step serves clusters of 5, then 2, then 7 members, as a
  // federation runner does: spare rows and videos come back with their
  // buffers, and every row and video equals a fresh step's.
  ClusterSlot reused;
  const auto& catalog = display::DeviceCatalog::standard();
  const std::size_t sizes[] = {5, 2, 7};
  for (std::size_t round = 0; round < 3; ++round) {
    // Row i differs in every field from row i of the earlier rounds, so a
    // field a reused row kept would show.
    std::vector<SlotMember> members =
        step_members(sizes[round], 10 * round + 1);
    for (std::size_t i = 0; i < members.size(); ++i) {
      SlotMember& member = members[i];
      const double r = static_cast<double>(round);
      member.spec = &catalog.at((i + round) % catalog.size()).spec;
      member.genre =
          static_cast<media::Genre>((i + round) % media::kGenreCount);
      member.bitrate_mbps += 0.5 * r;
      member.energy_mwh += 7.0 * r;
      member.capacity_mwh += 11.0 * r;
      member.gamma += 0.01 * r;
    }
    const std::uint64_t slot = 20 + round;
    reused.assemble(step_config(), slot, members);
    ClusterSlot fresh;
    fresh.assemble(step_config(), slot, members);

    ASSERT_EQ(reused.problem().devices.size(), members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const DeviceSlotInput& row = reused.problem().devices[i];
      const DeviceSlotInput& want = fresh.problem().devices[i];
      EXPECT_EQ(row.id.value, want.id.value);
      EXPECT_EQ(row.power_rates_mw, want.power_rates_mw);
      EXPECT_EQ(row.chunk_durations_s, want.chunk_durations_s);
      EXPECT_EQ(row.initial_energy_mwh, want.initial_energy_mwh);
      EXPECT_EQ(row.battery_capacity_mwh, want.battery_capacity_mwh);
      EXPECT_EQ(row.gamma, want.gamma);
      EXPECT_EQ(row.compute_cost, want.compute_cost);
      EXPECT_EQ(row.storage_cost, want.storage_cost);
      EXPECT_EQ(row.sla_weight, want.sla_weight);

      const media::Video& video = reused.video(i);
      const media::Video& want_video = fresh.video(i);
      EXPECT_EQ(video.id.value, want_video.id.value);
      EXPECT_EQ(video.genre, want_video.genre);
      EXPECT_EQ(video.bitrate_mbps, want_video.bitrate_mbps);
      ASSERT_EQ(video.chunks.size(), want_video.chunks.size());
      for (std::size_t k = 0; k < video.chunks.size(); ++k) {
        const media::VideoChunk& a = video.chunks[k];
        const media::VideoChunk& b = want_video.chunks[k];
        EXPECT_EQ(a.id.value, b.id.value);
        EXPECT_EQ(a.duration.value, b.duration.value);
        EXPECT_EQ(a.bitrate_mbps, b.bitrate_mbps);
        EXPECT_EQ(a.stats.mean_luminance, b.stats.mean_luminance);
        EXPECT_EQ(a.stats.mean_r, b.stats.mean_r);
        EXPECT_EQ(a.stats.mean_g, b.stats.mean_g);
        EXPECT_EQ(a.stats.mean_b, b.stats.mean_b);
        EXPECT_EQ(a.stats.peak_luminance, b.stats.peak_luminance);
      }
    }
  }
}

TEST(SlotKernel, CapacityCheckArithmetic) {
  SlotProblem problem;
  for (int n = 1; n <= 3; ++n) {
    DeviceSlotInput& device = problem.devices.emplace_back();
    device.compute_cost = n;
    device.storage_cost = 10.0 * n;
  }
  const auto fits = [&](std::vector<int> x, double compute, double storage) {
    problem.compute_capacity = compute;
    problem.storage_capacity = storage;
    Schedule schedule;
    schedule.x = std::move(x);
    return within_capacity(problem, schedule);
  };
  EXPECT_TRUE(fits({1, 1, 0}, 3.0, 30.0));
  EXPECT_FALSE(fits({1, 1, 1}, 5.0, 100.0));
  EXPECT_FALSE(fits({0, 0, 1}, 10.0, 29.0));
  EXPECT_TRUE(fits({0, 0, 0}, 0.0, 0.0));
  EXPECT_FALSE(fits({0, 0}, 10.0, 100.0));  // one decision per device
}

TEST(SlotKernel, ClusterSlotFlagsAnOverCapacitySchedule) {
  const std::vector<SlotMember> members = step_members(3, 1);
  ClusterSlot step;
  step.assemble(step_config(), 0, members);
  double compute = 0.0;
  double storage = 0.0;
  for (const DeviceSlotInput& row : step.problem().devices) {
    compute += row.compute_cost;
    storage += row.storage_cost;
  }
  const RunContext context(anxiety());
  const FixedScheduler all(1);
  const FixedScheduler none(0);

  // Both rows exactly full: feasible.
  step.assemble(step_config().with_compute_capacity(compute)
                    .with_storage_capacity_mb(storage),
                0, members);
  EXPECT_TRUE(step.solve(all, context).within_capacity);

  // Either row short by more than the slack: flagged.
  step.assemble(step_config().with_compute_capacity(compute - 1e-6), 0,
                members);
  const CheckedSchedule over_compute = step.solve(all, context);
  EXPECT_EQ(over_compute.schedule.selected_count(), 3);
  EXPECT_FALSE(over_compute.within_capacity);
  EXPECT_TRUE(step.solve(none, context).within_capacity);
  EXPECT_TRUE(step.solve(LpvsScheduler{}, context).within_capacity);

  step.assemble(step_config().with_storage_capacity_mb(storage - 1e-6), 0,
                members);
  EXPECT_FALSE(step.solve(all, context).within_capacity);
  EXPECT_TRUE(step.solve(LpvsScheduler{}, context).within_capacity);
}

}  // namespace
}  // namespace lpvs::core
