// Deterministic pseudo-random number generators.
//
// The simulator must be bit-reproducible across runs and platforms, so we do
// not use std::mt19937 distributions (their outputs are implementation
// defined for some distributions).  SplitMix64 seeds; Xoshiro256** is the
// workhorse generator used by the synthetic trace generators.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace pcal {

/// The number of entries of the nondecreasing `cdf[0, n)` below `u` —
/// std::lower_bound's index — found without data-dependent branches:
/// the sampled u is random, so a branching binary search mispredicts
/// about every other step.  Each step halves the window with a
/// conditional move; the loop count depends on n alone.  n >= 1.
inline std::size_t cdf_index(const double* cdf, std::size_t n, double u) {
  const double* base = cdf;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < u ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - cdf) + (*base < u ? 1 : 0);
}

/// SplitMix64: tiny, high-quality seeding generator (Steele et al.).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: fast, well-distributed 64-bit generator (Blackman/Vigna).
class Xoshiro256 {
 public:
  /// Seeds all 256 bits of state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed);

  // The per-access generators are inline: the trace generator draws
  // several per access.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using rejection to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) {
    PCAL_ASSERT(bound != 0);
    // Lemire-style rejection: accept unless we fall into the biased tail.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial with probability `p` of returning true.
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Precomputed-CDF Zipf sampler: O(log n) per sample via a branch-free
/// binary search (cdf_index).  Ranks 0..n-1 with probability proportional
/// to 1/(rank+1)^s; s = 0 gives the uniform distribution.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t sample(Xoshiro256& rng) const {
    return cdf_index(cdf_.data(), cdf_.size(), rng.next_double());
  }

  std::uint64_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace pcal
