// Tests for the survey module: synthetic population marginals (Table II),
// the four-step LBA curve extraction, and the Fig. 2 shape properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/survey/lba_curve.hpp"
#include "lpvs/survey/population.hpp"

namespace lpvs::survey {
namespace {

std::vector<Participant> paper_population(std::uint64_t seed = 7) {
  common::Rng rng(seed);
  return SyntheticPopulation().generate_paper_population(rng);
}

TEST(Population, GeneratesRequestedSize) {
  common::Rng rng(1);
  EXPECT_EQ(SyntheticPopulation().generate(500, rng).size(), 500u);
  EXPECT_EQ(paper_population().size(), 2032u);
}

TEST(Population, GenderMarginalsMatchTable2) {
  const auto population = paper_population();
  long male = 0;
  for (const Participant& p : population) {
    male += p.gender == Gender::kMale ? 1 : 0;
  }
  EXPECT_EQ(male, 1095);  // exact partition, Table II
  EXPECT_EQ(static_cast<long>(population.size()) - male, 937);
}

TEST(Population, OccupationMarginalsMatchTable2) {
  const auto population = paper_population();
  std::map<Occupation, long> counts;
  for (const Participant& p : population) ++counts[p.occupation];
  EXPECT_EQ(counts[Occupation::kStudent], 1024);
  EXPECT_EQ(counts[Occupation::kGovernment], 271);
  EXPECT_EQ(counts[Occupation::kCompany], 434);
  EXPECT_EQ(counts[Occupation::kFreelance], 144);
  EXPECT_EQ(counts[Occupation::kOther], 159);
}

TEST(Population, BrandMarginalsMatchTable2) {
  const auto population = paper_population();
  std::map<PhoneBrand, long> counts;
  for (const Participant& p : population) ++counts[p.brand];
  EXPECT_EQ(counts[PhoneBrand::kIPhone], 737);
  EXPECT_EQ(counts[PhoneBrand::kHuawei], 682);
  EXPECT_EQ(counts[PhoneBrand::kXiaomi], 228);
  EXPECT_EQ(counts[PhoneBrand::kOther], 385);
}

TEST(Population, AgeWeightsPreserveProportions) {
  const auto population = paper_population();
  std::map<AgeBand, long> counts;
  for (const Participant& p : population) ++counts[p.age];
  // Table II's age counts are used as weights (they do not sum to N in the
  // published table); check the ordering and rough proportions instead.
  EXPECT_GT(counts[AgeBand::k18To25], counts[AgeBand::k25To35]);
  EXPECT_GT(counts[AgeBand::k25To35], counts[AgeBand::k35To45]);
  EXPECT_GT(counts[AgeBand::k35To45], counts[AgeBand::k45To65]);
  EXPECT_GT(counts[AgeBand::k45To65], counts[AgeBand::kUnder18]);
  EXPECT_NEAR(static_cast<double>(counts[AgeBand::k18To25]) /
                  static_cast<double>(population.size()),
              888.0 / 1726.0, 0.01);
}

TEST(Population, SmallPopulationKeepsMarginalShares) {
  common::Rng rng(3);
  const auto population = SyntheticPopulation().generate(100, rng);
  long male = 0;
  for (const Participant& p : population) {
    male += p.gender == Gender::kMale ? 1 : 0;
  }
  // 1095/2032 = 53.9% -> 54 of 100 (largest remainder).
  EXPECT_EQ(male, 54);
}

TEST(Population, LbaFractionNearPaperValue) {
  const auto population = paper_population();
  EXPECT_NEAR(SyntheticPopulation::lba_fraction(population), 0.9188, 0.02);
}

TEST(Population, AnswersInValidRanges) {
  const auto population = paper_population();
  for (const Participant& p : population) {
    EXPECT_GE(p.charge_level, 1);
    EXPECT_LE(p.charge_level, 100);
    EXPECT_GE(p.giveup_level, 0);
    EXPECT_LE(p.giveup_level, 100);
    if (!p.suffers_lba) {
      EXPECT_EQ(p.giveup_level, 0);
    }
  }
}

TEST(Population, GiveupFractionsMatchSurveyHeadlines) {
  const auto population = paper_population();
  // "over 20% of the mobile audiences will drop video watching when the
  // battery life remains 20%" and "~50% when only 10% battery energy left".
  EXPECT_NEAR(SyntheticPopulation::giveup_fraction_at(population, 20), 0.21,
              0.04);
  EXPECT_NEAR(SyntheticPopulation::giveup_fraction_at(population, 10), 0.50,
              0.05);
}

TEST(Population, GiveupFractionMonotone) {
  const auto population = paper_population();
  double prev = 1.0;
  for (int level = 1; level <= 100; level += 9) {
    const double frac =
        SyntheticPopulation::giveup_fraction_at(population, level);
    EXPECT_LE(frac, prev + 1e-12);
    prev = frac;
  }
}

TEST(Population, DeterministicGivenSeed) {
  const auto a = paper_population(99);
  const auto b = paper_population(99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].charge_level, b[i].charge_level);
    EXPECT_EQ(a[i].giveup_level, b[i].giveup_level);
    EXPECT_EQ(a[i].gender, b[i].gender);
  }
}

TEST(LbaExtraction, SingleAnswerFillsPrefix) {
  LbaCurveExtractor extractor;
  extractor.add_answer(30);
  for (int level = 1; level <= 30; ++level) {
    EXPECT_EQ(extractor.bins()[static_cast<std::size_t>(level - 1)], 1);
  }
  for (int level = 31; level <= 100; ++level) {
    EXPECT_EQ(extractor.bins()[static_cast<std::size_t>(level - 1)], 0);
  }
}

TEST(LbaExtraction, AnswersClampedIntoRange) {
  LbaCurveExtractor extractor;
  extractor.add_answer(-5);   // clamps to 1
  extractor.add_answer(500);  // clamps to 100
  EXPECT_EQ(extractor.bins()[0], 2);
  EXPECT_EQ(extractor.bins()[99], 1);
}

TEST(LbaExtraction, NormalizationReachesOne) {
  LbaCurveExtractor extractor;
  extractor.add_answer(20);
  extractor.add_answer(50);
  extractor.add_answer(80);
  const auto degrees = extractor.normalized();
  EXPECT_DOUBLE_EQ(degrees[0], 1.0);  // bin for level 1 holds all answers
  EXPECT_DOUBLE_EQ(degrees[99], 0.0);
  EXPECT_NEAR(degrees[49], 2.0 / 3.0, 1e-12);  // two answers >= 50
}

TEST(LbaExtraction, CurveEqualsComplementaryCdf) {
  // The 4-step procedure is exactly the empirical survival function of the
  // charge answers: anxiety(b) = P(answer >= b).
  common::Rng rng(5);
  LbaCurveExtractor extractor;
  std::vector<int> answers;
  for (int i = 0; i < 5000; ++i) {
    const int a = static_cast<int>(rng.uniform_int(1, 100));
    answers.push_back(a);
    extractor.add_answer(a);
  }
  const auto degrees = extractor.normalized();
  for (int level = 1; level <= 100; level += 7) {
    const double ccdf =
        static_cast<double>(std::count_if(
            answers.begin(), answers.end(),
            [&](int a) { return a >= level; })) /
        static_cast<double>(answers.size());
    EXPECT_NEAR(degrees[static_cast<std::size_t>(level - 1)], ccdf, 1e-12);
  }
}

TEST(LbaExtraction, PermutationInvariant) {
  std::vector<int> answers = {20, 35, 50, 10, 80, 20, 20, 95, 5};
  LbaCurveExtractor forward;
  for (int a : answers) forward.add_answer(a);
  std::reverse(answers.begin(), answers.end());
  LbaCurveExtractor backward;
  for (int a : answers) backward.add_answer(a);
  EXPECT_EQ(forward.bins(), backward.bins());
}

TEST(LbaExtraction, ExtractedCurveNonIncreasing) {
  common::Rng rng(6);
  LbaCurveExtractor extractor;
  extractor.add_population(SyntheticPopulation().generate(500, rng));
  EXPECT_TRUE(extractor.extract().non_increasing());
}

TEST(LbaCurveShape, PaperPopulationReproducesFig2) {
  common::Rng rng(7);
  LbaCurveExtractor extractor;
  extractor.add_population(
      SyntheticPopulation().generate_paper_population(rng));
  const auto curve = extractor.extract();
  const CurveShape shape = analyze_curve(curve);
  EXPECT_TRUE(shape.non_increasing);
  EXPECT_TRUE(shape.convex_above_20) << "curve must be convex on [20,100]";
  EXPECT_TRUE(shape.concave_below_20) << "curve must be concave on [0,20]";
  EXPECT_GT(shape.jump_at_20, 0.1) << "sharp increase at the 20% warning";
  EXPECT_DOUBLE_EQ(shape.anxiety_at_empty, 1.0);
  EXPECT_LT(shape.anxiety_at_full, 0.08);
}

TEST(LbaCurveShape, ShapeStableAcrossSeeds) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    common::Rng rng(seed);
    LbaCurveExtractor extractor;
    extractor.add_population(
        SyntheticPopulation().generate_paper_population(rng));
    const CurveShape shape = analyze_curve(extractor.extract());
    EXPECT_TRUE(shape.non_increasing) << "seed " << seed;
    EXPECT_GT(shape.jump_at_20, 0.05) << "seed " << seed;
  }
}

TEST(AnxietyModel, ReferenceMatchesFig2Shape) {
  const AnxietyModel model = AnxietyModel::reference();
  const CurveShape shape = analyze_curve(model.curve());
  EXPECT_TRUE(shape.non_increasing);
  EXPECT_TRUE(shape.convex_above_20);
  EXPECT_TRUE(shape.concave_below_20);
  EXPECT_GT(shape.jump_at_20, 0.2);
}

TEST(AnxietyModel, FractionAndPercentAgree) {
  const AnxietyModel model = AnxietyModel::reference();
  EXPECT_DOUBLE_EQ(model(0.5), model.at_percent(50.0));
  EXPECT_DOUBLE_EQ(model(0.2), model.at_percent(20.0));
}

TEST(AnxietyModel, ClampsInputs) {
  const AnxietyModel model = AnxietyModel::reference();
  EXPECT_DOUBLE_EQ(model(-0.5), model(0.0));
  EXPECT_DOUBLE_EQ(model(1.5), model(1.0));
  EXPECT_GE(model(0.0), model(1.0));
}

TEST(AnxietyModel, OutputsInUnitInterval) {
  const AnxietyModel model = AnxietyModel::reference();
  for (double e = 0.0; e <= 1.0; e += 0.01) {
    EXPECT_GE(model(e), 0.0);
    EXPECT_LE(model(e), 1.0);
  }
}

TEST(AnxietyModel, MoreBatteryNeverMoreAnxiety) {
  const AnxietyModel model = AnxietyModel::reference();
  for (double e = 0.0; e < 1.0; e += 0.01) {
    EXPECT_GE(model(e), model(e + 0.01) - 1e-12);
  }
}

/// A binary-search reference for PiecewiseLinear's bucketed knot lookup:
/// std::upper_bound picks the segment, then the same interpolation.
double upper_bound_lookup(const common::PiecewiseLinear& f, double x) {
  const auto xs = f.xs();
  const auto ys = f.ys();
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto hi =
      static_cast<std::size_t>(std::upper_bound(xs.begin(), xs.end(), x) -
                               xs.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

/// Every knot, its neighbours one ulp either side, points between knots,
/// +-0, values below, above and at +-inf, and the edges of any bucket
/// table of 1 to 8 buckets per segment with their neighbours.
std::vector<double> lookup_probes(const common::PiecewiseLinear& f) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {-kInf, -1e300, f.x_min() - 1.0, -0.0, 0.0,
                                f.x_max() + 1.0, 1e300, kInf};
  const auto xs = f.xs();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    probes.push_back(xs[i]);
    probes.push_back(std::nextafter(xs[i], -kInf));
    probes.push_back(std::nextafter(xs[i], kInf));
    if (i + 1 < xs.size()) probes.push_back(0.5 * (xs[i] + xs[i + 1]));
  }
  for (std::size_t per_segment = 1;
       per_segment <= 8 && xs.size() > 1; ++per_segment) {
    const std::size_t buckets = per_segment * (xs.size() - 1);
    const double width =
        (f.x_max() - f.x_min()) / static_cast<double>(buckets);
    for (std::size_t b = 0; b <= buckets; ++b) {
      const double edge = f.x_min() + width * static_cast<double>(b);
      probes.push_back(edge);
      probes.push_back(std::nextafter(edge, -kInf));
      probes.push_back(std::nextafter(edge, kInf));
    }
  }
  return probes;
}

void expect_lookup_bits(const common::PiecewiseLinear& f, const char* name) {
  for (double x : lookup_probes(f)) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(upper_bound_lookup(f, x)),
              std::bit_cast<std::uint64_t>(f(x)))
        << name << " x=" << x;
  }
  EXPECT_TRUE(std::isnan(f(std::numeric_limits<double>::quiet_NaN())))
      << name;
}

TEST(AnxietyModel, KnotSearchMatchesUpperBoundBitForBit) {
  const AnxietyModel reference = AnxietyModel::reference();
  expect_lookup_bits(reference.curve(), "reference");

  common::Rng rng(7);
  LbaCurveExtractor extractor;
  extractor.add_population(
      SyntheticPopulation().generate_paper_population(rng));
  const common::PiecewiseLinear extracted = extractor.extract();
  expect_lookup_bits(extracted, "extracted (x = 1..100)");
  // The same degrees on a 101-knot grid x = 0..100 (battery 0 pinned at 1).
  std::vector<double> degrees = extractor.normalized();
  degrees.insert(degrees.begin(), 1.0);
  expect_lookup_bits(common::PiecewiseLinear::from_uniform_samples(degrees),
                     "uniform 101 knots");
  // 1.0 + (0.1 - 1.0) != 0.1: reaching a knot through the segment on its
  // left would change the last bit, so this curve pins the segment choice.
  expect_lookup_bits(common::PiecewiseLinear({0.0, 1.0, 2.0, 3.0, 4.0},
                                             {1.0, 0.1, 1.0, 0.1, 0.7}),
                     "knot-sensitive");
  for (std::size_t knots = 2; knots <= 9; ++knots) {
    std::vector<double> ys(knots);
    for (std::size_t i = 0; i < knots; ++i) ys[i] = rng.uniform();
    expect_lookup_bits(
        common::PiecewiseLinear::from_uniform_samples(ys, -3.0, 0.7),
        "small");
  }

  // Non-integer, uneven knots with a knot at 0 (so +-0 fall inside) and
  // gaps from 0.25 to 32: several knots share a bucket, and others span
  // many buckets.
  expect_lookup_bits(
      common::PiecewiseLinear(
          {-2.5, -0.75, 0.0, 0.3, 1.9, 7.25, 7.5, 7.75, 40.125, 41.0},
          {0.9, 0.1, 0.35, 0.8, 0.2, 0.45, 1.0, 0.05, 0.6, 0.3}),
      "uneven");
  // Zero strictly inside a segment, and a curve of two knots.
  expect_lookup_bits(common::PiecewiseLinear({-1.3, 0.7, 2.9}, {0.2, 0.9, 0.1}),
                     "zero inside a segment");
  expect_lookup_bits(common::PiecewiseLinear({0.1, 0.3}, {0.7, 0.2}),
                     "two knots");

  // at_percent is the clamped lookup on [0, 100], clamped into [0, 1].
  for (double percent : lookup_probes(reference.curve())) {
    const double want = std::clamp(
        upper_bound_lookup(reference.curve(), std::clamp(percent, 0.0, 100.0)),
        0.0, 1.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
              std::bit_cast<std::uint64_t>(reference.at_percent(percent)))
        << "percent=" << percent;
  }
}

TEST(AnxietyModel, NanInGivesNanOut) {
  const AnxietyModel model = AnxietyModel::reference();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(model(nan)));
  EXPECT_TRUE(std::isnan(model.at_percent(nan)));
}

/// Extraction pipeline sweep: for any population size the curve must obey
/// the structural invariants.
class ExtractionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExtractionSweep, InvariantsHoldAtAnyScale) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  LbaCurveExtractor extractor;
  extractor.add_population(
      SyntheticPopulation().generate(GetParam(), rng));
  const auto curve = extractor.extract();
  EXPECT_TRUE(curve.non_increasing());
  EXPECT_DOUBLE_EQ(curve(1.0), 1.0);
  EXPECT_GE(curve(100.0), 0.0);
  for (double level = 1.0; level <= 100.0; level += 1.0) {
    EXPECT_GE(curve(level), 0.0);
    EXPECT_LE(curve(level), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(PopulationSizes, ExtractionSweep,
                         ::testing::Values(10, 50, 200, 1000, 2032, 5000));

}  // namespace
}  // namespace lpvs::survey
