// Unit and property tests for the common substrate: RNG, statistics,
// piecewise-linear curves, tables and unit types.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "lpvs/common/piecewise.hpp"
#include "lpvs/common/rng.hpp"
#include "lpvs/common/stats.hpp"
#include "lpvs/common/table.hpp"
#include "lpvs/common/units.hpp"

namespace lpvs::common {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(77);
  const auto first = a();
  a.reseed(77);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 7.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 7.25);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(12);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng rng(14);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.truncated_normal(0.5, 0.3, 0.1, 0.9);
    EXPECT_GE(v, 0.1);
    EXPECT_LE(v, 0.9);
  }
}

TEST(Rng, TruncatedNormalDegenerateWindowClamps) {
  Rng rng(15);
  // Mean far outside a tiny window: must still terminate and clamp.
  const double v = rng.truncated_normal(100.0, 0.001, 0.0, 1.0);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST(Rng, LognormalPositive) {
  Rng rng(16);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(18);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ZipfInRangeAndSkewed) {
  Rng rng(19);
  std::vector<long> counts(10, 0);
  for (int i = 0; i < 50000; ++i) {
    const auto r = rng.zipf(10, 1.2);
    ASSERT_GE(r, 1);
    ASSERT_LE(r, 10);
    ++counts[static_cast<std::size_t>(r - 1)];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(Rng, DerivedStreamsAreReproduciblePerTriple) {
  // Per-(seed, entity, slot) streams: the same triple always yields the
  // same stream, however many other streams were drawn in between.
  Rng first = derived_rng(42, 7, 3);
  std::vector<std::uint64_t> want;
  for (int i = 0; i < 16; ++i) want.push_back(first());
  for (std::uint64_t other = 0; other < 50; ++other) {
    Rng noise = derived_rng(42, other, other + 1);
    (void)noise();
  }
  Rng again = derived_rng(42, 7, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(again(), want[i]) << "draw " << i;
}

TEST(Rng, DerivedStreamsSeparateEveryComponent) {
  const std::uint64_t base = derived_rng(42, 7, 3)();
  EXPECT_NE(derived_rng(43, 7, 3)(), base);  // seed
  EXPECT_NE(derived_rng(42, 8, 3)(), base);  // entity
  EXPECT_NE(derived_rng(42, 7, 4)(), base);  // slot
  EXPECT_NE(derived_rng(42, 3, 7)(), base);  // entity and slot swapped
  // A grid of (entity, slot) pairs never collides on the first draw.
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t a = 0; a < 40; ++a) {
    for (std::uint64_t b = 0; b < 40; ++b) firsts.push_back(derived_rng(1, a, b)());
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(2.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 1.5);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Histogram, BinningAndClamping) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(0.5);    // bin 0
  hist.add(9.9);    // bin 4
  hist.add(-3.0);   // clamped to bin 0
  hist.add(100.0);  // clamped to bin 4
  hist.add(5.0);    // bin 2
  EXPECT_EQ(hist.total(), 5u);
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(2), 1u);
  EXPECT_EQ(hist.count(4), 2u);
  EXPECT_DOUBLE_EQ(hist.fraction(2), 0.2);
}

TEST(Histogram, BinEdges) {
  Histogram hist(0.0, 600.0, 12);
  EXPECT_DOUBLE_EQ(hist.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(0), 50.0);
  EXPECT_DOUBLE_EQ(hist.bin_lo(11), 550.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(11), 600.0);
}

TEST(Histogram, ModeBin) {
  Histogram hist(0.0, 3.0, 3);
  hist.add(0.5);
  hist.add(1.5);
  hist.add(1.6);
  EXPECT_EQ(hist.mode_bin(), 1u);
}

TEST(Histogram, AsciiRendersEveryBin) {
  Histogram hist(0.0, 2.0, 2);
  hist.add(0.5);
  hist.add(1.5);
  const std::string art = hist.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Percentile, EdgesAndMedian) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(LinearFitTest, ExactLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(0.055 * i - 0.324);  // the paper's Fig. 10 fit
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.055, 1e-12);
  EXPECT_NEAR(fit.intercept, -0.324, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFitTest, NoisyLineHighR2) {
  Rng rng(22);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 1.0 + rng.normal(0.0, 1.0));
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(LinearFitTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(linear_fit({}, {}).slope, 0.0);
  const std::vector<double> one = {1.0};
  EXPECT_DOUBLE_EQ(linear_fit(one, one).slope, 0.0);
  // Vertical spread at one x: slope undefined, fit returns zeros.
  const std::vector<double> xs = {2.0, 2.0, 2.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(linear_fit(xs, ys).slope, 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(PiecewiseLinearTest, InterpolatesBetweenKnots) {
  const PiecewiseLinear f({0.0, 10.0}, {0.0, 100.0});
  EXPECT_DOUBLE_EQ(f(5.0), 50.0);
  EXPECT_DOUBLE_EQ(f(2.5), 25.0);
}

TEST(PiecewiseLinearTest, ClampsOutsideRange) {
  const PiecewiseLinear f({1.0, 2.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(f(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f(5.0), 20.0);
}

TEST(PiecewiseLinearTest, FromUniformSamples) {
  const auto f = PiecewiseLinear::from_uniform_samples({1.0, 3.0, 5.0}, 10.0,
                                                       2.0);
  EXPECT_DOUBLE_EQ(f.x_min(), 10.0);
  EXPECT_DOUBLE_EQ(f.x_max(), 14.0);
  EXPECT_DOUBLE_EQ(f(11.0), 2.0);
}

TEST(PiecewiseLinearTest, NanInGivesNanOut) {
  // NaN fails both boundary comparisons; the lookup must still never index
  // past the last knot (the sanitizer lane runs this suite).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(PiecewiseLinear({3.0}, {7.0})(nan)));
  EXPECT_TRUE(std::isnan(PiecewiseLinear({0.0, 1.0}, {5.0, 3.0})(nan)));
  EXPECT_TRUE(std::isnan(
      PiecewiseLinear::from_uniform_samples(std::vector<double>(101, 0.5))(
          nan)));
}

TEST(PiecewiseLinearTest, NonIncreasingDetection) {
  EXPECT_TRUE(PiecewiseLinear({0, 1, 2}, {5, 3, 3}).non_increasing());
  EXPECT_FALSE(PiecewiseLinear({0, 1, 2}, {5, 3, 4}).non_increasing());
}

TEST(PiecewiseLinearTest, IntegralOfConstant) {
  const PiecewiseLinear f({0.0, 10.0}, {2.0, 2.0});
  EXPECT_NEAR(f.integrate(0.0, 10.0), 20.0, 1e-12);
  EXPECT_NEAR(f.integrate(2.0, 4.0), 4.0, 1e-12);
}

TEST(PiecewiseLinearTest, IntegralOfRamp) {
  const PiecewiseLinear f({0.0, 10.0}, {0.0, 10.0});
  EXPECT_NEAR(f.integrate(0.0, 10.0), 50.0, 1e-12);
  EXPECT_NEAR(f.integrate(0.0, 5.0), 12.5, 1e-12);
}

TEST(PiecewiseLinearTest, SlopeAt) {
  const PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(f.slope_at(0.5), 2.0);
  EXPECT_DOUBLE_EQ(f.slope_at(1.5), 0.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", Table::num(1.5)});
  table.add_row({"b", Table::num(22.125, 3)});
  const std::string out = table.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("22.125"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NE(table.render().find("only"), std::string::npos);
}

TEST(Units, EnergyFromPowerAndTime) {
  const MilliwattHours e = energy(Milliwatts{600.0}, Seconds{3600.0});
  EXPECT_DOUBLE_EQ(e.value, 600.0);
  const MilliwattHours half = energy(Milliwatts{600.0}, Seconds{1800.0});
  EXPECT_DOUBLE_EQ(half.value, 300.0);
}

TEST(Units, AveragePowerInvertsEnergy) {
  const Milliwatts p{450.0};
  const Seconds t{1234.0};
  const Milliwatts back = average_power(energy(p, t), t);
  EXPECT_NEAR(back.value, p.value, 1e-9);
}

TEST(Units, SecondsConversions) {
  const Seconds s{7200.0};
  EXPECT_DOUBLE_EQ(s.minutes(), 120.0);
  EXPECT_DOUBLE_EQ(s.hours(), 2.0);
}

TEST(Units, SlotLengthIsFiveMinutes) {
  EXPECT_DOUBLE_EQ(kSlotLength.value, 300.0);
}

TEST(Units, StrongIdsDistinct) {
  const DeviceId d{3};
  const DeviceId e{3};
  const DeviceId f{4};
  EXPECT_EQ(d, e);
  EXPECT_NE(d, f);
  EXPECT_LT(d, f);
}

}  // namespace
}  // namespace lpvs::common
