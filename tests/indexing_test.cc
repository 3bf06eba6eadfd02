#include "indexing/index_rotation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include "core/enum_strings.h"
#include "util/error.h"
#include "util/lfsr.h"

namespace pcal {
namespace {

// The bank widths p = 0..4 (M = 1..16) and one line width (512 sets).
constexpr unsigned kWidths[] = {0, 1, 2, 3, 4, 9};

std::string at(unsigned bits) { return std::to_string(bits) + " bits"; }

TEST(Static, IdentityForever) {
  for (unsigned bits : kWidths) {
    SCOPED_TRACE(at(bits));
    IndexRotation s(IndexingKind::kStatic, bits, 1);
    for (int u = 0; u < 3; ++u) {
      for (std::uint64_t i = 0; i < (std::uint64_t{1} << bits); ++i)
        ASSERT_EQ(s(i), i) << "after " << u;
      s.update();
    }
  }
}

TEST(Probing, RotatesByOnePerUpdate) {
  IndexRotation p(IndexingKind::kProbing, 2, 1);
  EXPECT_EQ(p(0), 0u);
  p.update();
  EXPECT_EQ(p(0), 1u);
  EXPECT_EQ(p(3), 0u);  // mod-M wrap
  p.update();
  EXPECT_EQ(p(0), 2u);
  EXPECT_EQ(p.add(), 2u);
}

TEST(Probing, PaperExampleBankRotation) {
  // Paper Example 1: N=256 lines, M=4 banks; address 70 starts in bank 1
  // and visits banks 2, 3, 0 on successive updates.
  IndexRotation p(IndexingKind::kProbing, 2, 1);
  const std::uint64_t logical_bank = 70 / 64;  // = 1
  const std::uint64_t expect[] = {1, 2, 3, 0, 1};
  for (int u = 0; u <= 4; ++u) {
    EXPECT_EQ(p(logical_bank), expect[u]) << "after " << u;
    p.update();
  }
}

TEST(Probing, MUpdatesReturnToIdentity) {
  for (unsigned bits : kWidths) {
    SCOPED_TRACE(at(bits));
    const std::uint64_t m = std::uint64_t{1} << bits;
    IndexRotation p(IndexingKind::kProbing, bits, 1);
    for (std::uint64_t u = 0; u < m; ++u) p.update();
    for (std::uint64_t i = 0; i < m; ++i) ASSERT_EQ(p(i), i);
  }
}

TEST(Probing, VisitsEveryBankUniformly) {
  // The paper's uniformity claim: with k * M updates, every logical bank
  // has occupied every physical slot exactly k times.
  const int rounds = 3;
  for (unsigned bits : kWidths) {
    SCOPED_TRACE(at(bits));
    const std::uint64_t m = std::uint64_t{1} << bits;
    IndexRotation p(IndexingKind::kProbing, bits, 1);
    std::vector<std::vector<int>> visits(m, std::vector<int>(m, 0));
    for (std::uint64_t u = 0; u < rounds * m; ++u) {
      for (std::uint64_t b = 0; b < m; ++b) ++visits[b][p(b)];
      p.update();
    }
    for (std::uint64_t b = 0; b < m; ++b)
      for (std::uint64_t phys = 0; phys < m; ++phys)
        ASSERT_EQ(visits[b][phys], rounds) << b << "->" << phys;
  }
}

TEST(Scrambling, TimeZeroIsIdentity) {
  for (unsigned bits : kWidths) {
    IndexRotation s(IndexingKind::kScrambling, bits, 1);
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << bits); ++i)
      ASSERT_EQ(s(i), i) << at(bits);
  }
}

// The pattern after u updates is the low bits of a min(24, max(2, bits)
// + 8)-bit Galois LFSR stepped u times from the seed.
TEST(Scrambling, PatternIsTheLowBitsOfTheLfsr) {
  for (unsigned bits : kWidths) {
    SCOPED_TRACE(at(bits));
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    IndexRotation s(IndexingKind::kScrambling, bits, 5);
    GaloisLfsr lfsr(std::min(24u, std::max(2u, bits) + 8u), 5);
    for (int u = 1; u <= 200; ++u) {
      s.update();
      const std::uint64_t pattern = lfsr.step() & mask;
      ASSERT_EQ(s.pattern(), pattern) << "update " << u;
      ASSERT_EQ(s(0), pattern) << "update " << u;
    }
  }
}

TEST(Scrambling, ReachesEveryPatternIncludingIdentity) {
  // A truncated wide LFSR visits every p-bit pattern, the identity (0)
  // included, within a few times M updates.
  for (unsigned bits : kWidths) {
    SCOPED_TRACE(at(bits));
    const std::uint64_t m = std::uint64_t{1} << bits;
    IndexRotation s(IndexingKind::kScrambling, bits, 1);
    std::set<std::uint64_t> patterns;
    for (std::uint64_t u = 0; u < 16 * m + 300; ++u) {
      s.update();
      ASSERT_LT(s.pattern(), m);
      patterns.insert(s.pattern());
    }
    EXPECT_EQ(patterns.size(), m);
    EXPECT_EQ(patterns.count(0), 1u);
  }
}

TEST(Scrambling, PatternsNearUniformOverLongRun) {
  IndexRotation s(IndexingKind::kScrambling, 2, 7);
  std::array<int, 4> counts{};
  const int n = 20000;
  for (int u = 0; u < n; ++u) {
    s.update();
    ++counts[s.pattern()];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 4.0, n / 4.0 * 0.1);
}

TEST(Scrambling, WorksForTwoBanks) {
  IndexRotation s(IndexingKind::kScrambling, 1, 1);
  for (int u = 0; u < 10; ++u) {
    s.update();
    // Always a permutation of {0, 1}.
    EXPECT_NE(s(0), s(1));
  }
}

// Only Scrambling reads the seed: its LFSR rejects a seed with no bit in
// its width (10 bits for a 2-bit pattern); the other kinds ignore it.
TEST(Scrambling, RejectsASeedOutsideTheLfsr) {
  EXPECT_THROW(IndexRotation(IndexingKind::kScrambling, 2, 1024), Error);
  EXPECT_NO_THROW(IndexRotation(IndexingKind::kProbing, 2, 0));
  EXPECT_NO_THROW(IndexRotation(IndexingKind::kStatic, 2, 0));
}

// Every f() must always be a *permutation* of [0, 2^bits): this is what
// makes remap-plus-flush correct (two logical indices may never collide).
class PermutationProperty
    : public ::testing::TestWithParam<std::tuple<IndexingKind, unsigned>> {};

TEST_P(PermutationProperty, EveryUpdateYieldsAPermutation) {
  const auto [kind, bits] = GetParam();
  const std::uint64_t m = std::uint64_t{1} << bits;
  IndexRotation f(kind, bits, /*seed=*/3);
  for (int u = 0; u < 40; ++u) {
    std::set<std::uint64_t> image;
    for (std::uint64_t i = 0; i < m; ++i) {
      const std::uint64_t phys = f(i);
      EXPECT_LT(phys, m);
      image.insert(phys);
    }
    EXPECT_EQ(image.size(), m) << to_string(kind) << " " << at(bits)
                               << " update " << u;
    f.update();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndWidths, PermutationProperty,
    ::testing::Combine(::testing::Values(IndexingKind::kStatic,
                                         IndexingKind::kProbing,
                                         IndexingKind::kScrambling),
                       ::testing::ValuesIn(kWidths)));

}  // namespace
}  // namespace pcal
