// Deterministic random number generation.
//
// Every stochastic component of the reproduction (dataset synthesis, query
// obfuscation, network latency models, load generators) draws randomness
// from an explicitly seeded `Rng` so that each experiment is reproducible
// from the seed value printed by the harness.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded via SplitMix64 —
// fast, high-quality, and trivially portable.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace xsearch {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ pseudo-random generator with convenience distributions.
///
/// Not cryptographically secure — see `crypto::random_bytes` for key
/// material. Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed) {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  /// Next raw 64-bit output.
  std::uint64_t next() {
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

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound) {
    // assert, not XS_CHECK: runs on every decoy draw of the query path.
    assert(bound > 0);
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    // assert, not XS_CHECK: a per-draw check inlined into generator loops.
    assert(lo <= hi);
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform(range));
  }

  /// Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p) { return uniform_double() < p; }

  /// Standard normal via Box–Muller.
  double normal(double mean = 0.0, double stddev = 1.0) {
    if (have_cached_normal_) {
      have_cached_normal_ = false;
      return mean + stddev * cached_normal_;
    }
    double u1 = uniform_double();
    while (u1 <= 1e-300) u1 = uniform_double();
    const double u2 = uniform_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    cached_normal_ = r * std::sin(kTwoPi * u2);
    have_cached_normal_ = true;
    return mean + stddev * r * std::cos(kTwoPi * u2);
  }

  /// Log-normal draw: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

  /// Exponential draw with rate `lambda` (> 0).
  double exponential(double lambda) {
    // assert, not XS_CHECK: a per-draw check, inlined like uniform()'s.
    assert(lambda > 0);
    double u = uniform_double();
    while (u <= 1e-300) u = uniform_double();
    return -std::log(u) / lambda;
  }

  /// Forks an independent generator; the child stream is a deterministic
  /// function of the parent state, so fork order matters and is stable.
  Rng fork() { return Rng(next()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double cached_normal_ = 0.0;
  bool have_cached_normal_ = false;
};

/// Samples from a Zipf(s) distribution over ranks {0, ..., n-1} in O(log n)
/// per draw using a precomputed CDF. Rank 0 is the most probable element.
///
/// Query-log vocabularies and user activity levels are both heavy-tailed;
/// the synthetic dataset generator leans on this sampler throughout.
class ZipfSampler {
 public:
  /// `n` must be >= 1; `exponent` is the Zipf skew (1.0 ≈ natural language).
  ZipfSampler(std::size_t n, double exponent);

  /// Draws a rank in [0, size()).
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
};

}  // namespace xsearch
