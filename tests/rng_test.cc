#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace pcal {
namespace {

TEST(SplitMix, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const std::uint64_t a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
  EXPECT_NE(a.next(), a1);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 r(1);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextBelowBounds) {
  Xoshiro256 r(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
  EXPECT_THROW(r.next_below(0), Error);
}

TEST(Xoshiro, NextBelowIsRoughlyUniform) {
  Xoshiro256 r(11);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[r.next_below(kBuckets)];
  const double expect = static_cast<double>(kDraws) / kBuckets;
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expect, 5.0 * std::sqrt(expect)) << "bucket " << b;
  }
}

TEST(Xoshiro, NextInInclusive) {
  Xoshiro256 r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.next_in(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(r.next_in(9, 9), 9u);
}

TEST(Xoshiro, NextBoolExtremes) {
  Xoshiro256 r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Xoshiro, NextBoolRate) {
  Xoshiro256 r(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (r.next_bool(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Zipf, UniformWhenExponentZero) {
  ZipfSampler z(4, 0.0);
  Xoshiro256 r(2);
  std::array<int, 4> counts{};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (int c : counts) EXPECT_NEAR(c, n / 4.0, 4.0 * std::sqrt(n / 4.0));
}

TEST(Zipf, SkewPrefersLowRanks) {
  ZipfSampler z(64, 1.2);
  Xoshiro256 r(2);
  std::array<int, 64> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[7]);
  EXPECT_GT(counts[0], 10 * counts[32]);
  // Monotone on a coarse scale: compare quartile mass.
  int q0 = 0, q3 = 0;
  for (int i = 0; i < 16; ++i) q0 += counts[i];
  for (int i = 48; i < 64; ++i) q3 += counts[i];
  EXPECT_GT(q0, 4 * q3);
}

TEST(Zipf, SingleElement) {
  ZipfSampler z(1, 2.0);
  Xoshiro256 r(2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.sample(r), 0u);
}

TEST(Zipf, RejectsEmptySupport) { EXPECT_THROW(ZipfSampler(0, 1.0), Error); }

// cdf_index is std::lower_bound's index, found branch-free: check it on
// CDFs of every size from 1 to 300 (some with runs of equal entries, as a
// zero weight leaves), at random u, at every CDF value and just below
// and above each.
TEST(CdfIndex, MatchesLowerBound) {
  Xoshiro256 r(11);
  for (std::size_t n = 1; n <= 300; ++n) {
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (double& c : cdf) {
      acc += r.next_bool(0.2) ? 0.0 : r.next_double();
      c = acc;
    }
    const auto expect_index = [&](double u) {
      const auto want = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      ASSERT_EQ(cdf_index(cdf.data(), n, u), want)
          << "n " << n << " u " << u;
    };
    for (int i = 0; i < 200; ++i) expect_index(r.next_double() * acc * 1.1);
    for (const double c : cdf) {
      expect_index(c);
      expect_index(std::nextafter(c, -1.0));
      expect_index(std::nextafter(c, 2.0 * acc + 1.0));
    }
    expect_index(-1.0);
  }
}

}  // namespace
}  // namespace pcal
