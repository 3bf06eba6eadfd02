#include "util/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace pcal {
namespace {

IdleSums sums_of(const std::vector<std::uint64_t>& lengths, std::uint64_t d,
                 std::uint64_t g) {
  IdleSums s;
  for (std::uint64_t len : lengths) s.add(len, d, g);
  return s;
}

TEST(IdleSums, IgnoresZeroLength) {
  const IdleSums s = sums_of({0, 0}, 0, 0);
  EXPECT_EQ(s.intervals, 0u);
  EXPECT_EQ(s.above_d, 0u);
  EXPECT_EQ(s.excess_d, 0u);
  EXPECT_EQ(s.above_g, 0u);
  EXPECT_EQ(s.excess_g, 0u);
}

TEST(IdleSums, BasicAccounting) {
  const IdleSums s = sums_of({10, 50, 50, 200}, 32, 64);
  EXPECT_EQ(s.intervals, 4u);
  EXPECT_EQ(s.above_d, 3u);
  EXPECT_EQ(s.excess_d, (50 - 32) * 2 + (200 - 32));
  EXPECT_EQ(s.above_g, 1u);
  EXPECT_EQ(s.excess_g, 200u - 64u);
}

TEST(IdleSums, ThresholdsAreStrict) {
  // Strictly longer than a threshold counts: 32 is not above d = 32,
  // and 33 is not above g = 33.
  const IdleSums s = sums_of({32, 33, 100}, 32, 33);
  EXPECT_EQ(s.above_d, 2u);
  EXPECT_EQ(s.excess_d, (33 - 32) + (100 - 32));
  // The idle cycles in those intervals: 33 + 100.
  EXPECT_EQ(s.excess_d + s.above_d * 32, 133u);
  EXPECT_EQ(s.above_g, 1u);
  EXPECT_EQ(s.excess_g, 100u - 33u);
}

TEST(IdleSums, UsefulIdlenessDefinitions) {
  // 100 sleeps 100 - 20 = 80, 10 is too short, 60 sleeps 40.
  const IdleSums s = sums_of({100, 10, 60}, 20, 20);
  // time-weighted: (80 + 40) / 1000
  EXPECT_DOUBLE_EQ(s.useful_idleness_time(1000), 0.12);
  // count-weighted: 2 of 3 intervals qualify
  EXPECT_NEAR(s.useful_idleness_count(), 2.0 / 3.0, 1e-12);
}

TEST(IdleSums, EmptyMetricsAreZero) {
  const IdleSums s;
  EXPECT_EQ(s.useful_idleness_time(100), 0.0);
  EXPECT_EQ(s.useful_idleness_count(), 0.0);
  EXPECT_EQ(s.useful_idleness_time(0), 0.0);
}

// Property: for any interval set, the sums equal a direct count over the
// lengths at each threshold; sleep at threshold 0 is the total idle
// time; and both useful-idleness metrics, and the gate's sums against
// the breakeven's, are monotone non-increasing in the threshold.
class IdleSumsMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IdleSumsMonotone, MetricsShrinkWithThreshold) {
  std::vector<std::uint64_t> lengths;
  std::uint64_t seed = GetParam();
  std::uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    lengths.push_back((seed >> 33) % 300);
    total += lengths.back();
  }
  EXPECT_EQ(sums_of(lengths, 0, 0).excess_d, total);
  const std::uint64_t thresholds[] = {0, 1, 10, 50, 100, 400};
  double prev_time = 2.0, prev_count = 2.0;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::uint64_t d = thresholds[i];
    const std::uint64_t g = thresholds[i + 1 < 6 ? i + 1 : i];
    const IdleSums s = sums_of(lengths, d, g);
    std::uint64_t nonzero = 0, above = 0, excess = 0;
    for (std::uint64_t len : lengths) {
      nonzero += len > 0 ? 1 : 0;
      if (len > d) {
        ++above;
        excess += len - d;
      }
    }
    EXPECT_EQ(s.intervals, nonzero);
    EXPECT_EQ(s.above_d, above);
    EXPECT_EQ(s.excess_d, excess);
    EXPECT_LE(s.above_g, s.above_d);
    EXPECT_LE(s.excess_g, s.excess_d);
    EXPECT_EQ(s.excess_g, sums_of(lengths, g, g).excess_d);
    EXPECT_EQ(s.above_g, sums_of(lengths, g, g).above_d);
    const double t = s.useful_idleness_time(4 * total + 1);
    const double c = s.useful_idleness_count();
    EXPECT_LE(t, prev_time);
    EXPECT_LE(c, prev_count);
    prev_time = t;
    prev_count = c;
  }
  EXPECT_EQ(sums_of(lengths, 400, 400).excess_d, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdleSumsMonotone,
                         ::testing::Values(1u, 2u, 3u, 99u, 12345u));

}  // namespace
}  // namespace pcal
