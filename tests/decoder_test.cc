#include "bank/decoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/enum_strings.h"
#include "util/error.h"
#include "util/lfsr.h"

namespace pcal {
namespace {

CacheConfig cache_8k() {
  CacheConfig c;
  c.size_bytes = 8192;
  c.line_bytes = 16;
  return c;  // 512 lines, n = 9
}

BankDecoder make_decoder(IndexingKind kind, std::uint64_t banks = 4) {
  PartitionConfig part;
  part.num_banks = banks;
  return BankDecoder(cache_8k(), part, kind, /*seed=*/1);
}

TEST(Decoder, SplitsIndexBits) {
  BankDecoder d = make_decoder(IndexingKind::kStatic);
  EXPECT_EQ(d.index_bits(), 9u);
  EXPECT_EQ(d.bank_bits(), 2u);
  // Index 0b10_1100101: bank = 0b10 = 2, line = 0b1100101 = 101.
  const DecodedIndex r = d.decode((2u << 7) | 101u);
  EXPECT_EQ(r.logical_bank, 2u);
  EXPECT_EQ(r.physical_bank, 2u);
}

TEST(Decoder, ProbingMovesBanks) {
  BankDecoder d = make_decoder(IndexingKind::kProbing);
  d.update();
  const DecodedIndex r = d.decode((2u << 7) | 101u);
  EXPECT_EQ(r.logical_bank, 2u);
  EXPECT_EQ(r.physical_bank, 3u);
}

/// Counts, per physical bank, the set indices of [0, sets) that decode
/// to it; fails on a bank out of range.
std::vector<std::uint64_t> sets_per_bank(const BankDecoder& d,
                                         std::uint64_t sets) {
  std::vector<std::uint64_t> count(d.num_banks(), 0);
  for (std::uint64_t idx = 0; idx < sets; ++idx) {
    const DecodedIndex r = d.decode(idx);
    EXPECT_LT(r.physical_bank, d.num_banks()) << "set " << idx;
    if (r.physical_bank < d.num_banks()) ++count[r.physical_bank];
  }
  return count;
}

TEST(Decoder, PhysicalBanksStayDisjointAfterUpdates) {
  // Decoding all 512 indices must fill every physical bank with exactly
  // its 128 lines (a bijection on sets) no matter how many updates were
  // applied.
  for (auto kind : {IndexingKind::kProbing, IndexingKind::kScrambling}) {
    BankDecoder d = make_decoder(kind);
    for (int u = 0; u < 5; ++u) {
      EXPECT_EQ(sets_per_bank(d, 512), std::vector<std::uint64_t>(4, 128))
          << "collision at update " << u;
      d.update();
    }
  }
}

TEST(Decoder, MonolithicSingleBank) {
  BankDecoder d = make_decoder(IndexingKind::kStatic, 1);
  const DecodedIndex r = d.decode(300);
  EXPECT_EQ(r.logical_bank, 0u);
  EXPECT_EQ(r.physical_bank, 0u);
}

TEST(Decoder, RejectsOutOfRangeIndex) {
  BankDecoder d = make_decoder(IndexingKind::kStatic);
  EXPECT_THROW(d.decode(512), Error);
}

// decode() reads f() from a table the decoder rebuilds at construction
// and at every update(); it must agree with the paper's f() (Fig. 3) at
// every step, for every set, and stay a bijection on sets.  The reference
// f() is written here from the paper, not taken from the engine: Probing
// maps logical bank l to (l + c) mod M after c updates, Scrambling to
// l XOR (LFSR state mod M), the state of a min(24, max(2, p) + 8)-bit
// Galois LFSR stepped once per update (the identity before the first).
TEST(Decoder, TableFollowsThePolicy) {
  for (auto kind : {IndexingKind::kStatic, IndexingKind::kProbing,
                    IndexingKind::kScrambling}) {
    for (std::uint64_t banks : {1u, 2u, 4u, 8u, 16u}) {
      BankDecoder d = make_decoder(kind, banks);
      const unsigned p = d.bank_bits();
      const unsigned line_bits = d.index_bits() - p;
      GaloisLfsr lfsr(std::min(24u, std::max(2u, p) + 8u), /*seed=*/1);
      std::uint64_t updates = 0, pattern = 0;
      const auto f = [&](std::uint64_t l) -> std::uint64_t {
        switch (kind) {
          case IndexingKind::kStatic: return l;
          case IndexingKind::kProbing: return (l + updates) % banks;
          case IndexingKind::kScrambling: return l ^ pattern;
        }
        return l;
      };
      const auto check = [&] {
        SCOPED_TRACE(std::string(to_string(kind)) + " M=" +
                     std::to_string(banks) + " after " +
                     std::to_string(updates) + " updates");
        for (std::uint64_t s = 0; s < 512; ++s)
          ASSERT_EQ(d.decode(s).physical_bank, f(s >> line_bits))
              << "set " << s;
        ASSERT_EQ(sets_per_bank(d, 512),
                  std::vector<std::uint64_t>(banks, 512 / banks));
      };
      check();
      for (int u = 0; u < 3 * 16; ++u) {
        d.update();
        ++updates;
        pattern = lfsr.step() % banks;
        check();
      }
    }
  }
}

TEST(PartitionConfig, Validation) {
  PartitionConfig p;
  p.num_banks = 3;
  EXPECT_THROW(p.validate(cache_8k()), ConfigError);
  p.num_banks = 32;  // beyond the paper's M=16 feasibility bound
  EXPECT_THROW(p.validate(cache_8k()), ConfigError);
  p.num_banks = 16;
  EXPECT_NO_THROW(p.validate(cache_8k()));
}

TEST(PartitionConfig, DerivedQuantities) {
  PartitionConfig p;
  p.num_banks = 4;
  const CacheConfig c = cache_8k();
  EXPECT_EQ(p.bank_bits(), 2u);
  EXPECT_EQ(p.lines_per_bank(c), 128u);
  EXPECT_EQ(p.bank_bytes(c), 2048u);
}

}  // namespace
}  // namespace pcal
