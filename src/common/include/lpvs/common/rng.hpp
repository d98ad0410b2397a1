// Deterministic pseudo-random number generation for the LPVS emulator.
//
// Every stochastic component of the reproduction (survey population, trace
// synthesis, display assignment, initial battery levels, transform noise)
// draws from an explicitly seeded Rng so that a whole emulation run is
// reproducible bit-for-bit from a single 64-bit seed.  We implement
// xoshiro256++ rather than relying on std::mt19937 so the stream is stable
// across standard-library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace lpvs::common {

/// xoshiro256++ 1.0 by Blackman & Vigna (public domain reference
/// implementation, re-expressed in C++).  Passes BigCrush; 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via splitmix64, the
  /// recommended seeding procedure for the xoshiro family.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& lane : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      lane = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).  53 random mantissa bits.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).  Unbiased via rejection.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t draw = (*this)();
    while (draw >= limit) draw = (*this)();
    return lo + static_cast<std::int64_t>(draw % span);
  }

  /// Standard normal via Marsaglia polar method (no trig, deterministic).
  double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Normal draw rejected outside [lo, hi].  Falls back to clamping after
  /// 1000 rejections so pathological parameters cannot livelock.
  double truncated_normal(double mean, double stddev, double lo, double hi) {
    for (int i = 0; i < 1000; ++i) {
      const double draw = normal(mean, stddev);
      if (draw >= lo && draw <= hi) return draw;
    }
    const double draw = normal(mean, stddev);
    return draw < lo ? lo : (draw > hi ? hi : draw);
  }

  /// Log-normal: exp(N(mu, sigma^2)).
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with rate lambda.
  double exponential(double lambda) {
    return -std::log(1.0 - uniform()) / lambda;
  }

  /// Bounded Zipf(s) over ranks [1, n] via inverse-CDF on precomputed-free
  /// rejection sampling (Devroye).  Used for viewer-to-channel popularity.
  std::int64_t zipf(std::int64_t n, double s) {
    // Rejection sampling from a piecewise-constant envelope.
    const double b = std::pow(2.0, s - 1.0);
    while (true) {
      const double u = uniform();
      const double v = uniform();
      const auto x = static_cast<std::int64_t>(
          std::floor(std::pow(static_cast<double>(n) + 1.0, u)));
      const double t = std::pow(1.0 + 1.0 / static_cast<double>(x), s - 1.0);
      if (v * static_cast<double>(x) * (t - 1.0) / (b - 1.0) <=
          t / b) {
        if (x >= 1 && x <= n) return x;
      }
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Independent deterministic stream for a (seed, a, b) triple, typically
/// (seed, entity, slot).  All per-entity-per-slot randomness (content,
/// device draws, prefetch windows, gamma observation noise, client
/// behavior) comes from such streams, so results never depend on iteration
/// order, thread count, or which server or worker handles the entity.
inline Rng derived_rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return Rng(seed ^ (a + 1) * 0x9E3779B97F4A7C15ULL ^
             (b + 1) * 0xC2B2AE3D27D4EB4FULL);
}

}  // namespace lpvs::common
