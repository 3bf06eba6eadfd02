#include "bank/decoder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.h"

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
  return BankDecoder(cache_8k(), part,
                     make_indexing_policy(kind, banks, /*seed=*/1));
}

TEST(Decoder, SplitsIndexBits) {
  BankDecoder d = make_decoder(IndexingKind::kStatic);
  EXPECT_EQ(d.index_bits(), 9u);
  EXPECT_EQ(d.bank_bits(), 2u);
  // Index 0b10_1100101: bank = 0b10 = 2, line = 0b1100101 = 101.
  const DecodedIndex r = d.decode((2u << 7) | 101u);
  EXPECT_EQ(r.logical_bank, 2u);
  EXPECT_EQ(r.physical_bank, 2u);
  EXPECT_EQ(r.line, 101u);
  EXPECT_EQ(r.physical_set, (2u << 7) | 101u);
  EXPECT_EQ(r.select_mask, 0b0100u);
}

TEST(Decoder, ProbingMovesBanksButNotLines) {
  BankDecoder d = make_decoder(IndexingKind::kProbing);
  d.update();
  const DecodedIndex r = d.decode((2u << 7) | 101u);
  EXPECT_EQ(r.logical_bank, 2u);
  EXPECT_EQ(r.physical_bank, 3u);
  EXPECT_EQ(r.line, 101u);  // the n-p LSBs never change
  EXPECT_EQ(r.physical_set, (3u << 7) | 101u);
  EXPECT_EQ(r.select_mask, 0b1000u);
}

TEST(Decoder, PhysicalSetsStayDisjointAfterUpdates) {
  // Decoding all 512 indices must produce all 512 physical sets (a
  // bijection) no matter how many updates were applied.
  for (auto kind : {IndexingKind::kProbing, IndexingKind::kScrambling}) {
    BankDecoder d = make_decoder(kind);
    for (int u = 0; u < 5; ++u) {
      std::vector<bool> seen(512, false);
      for (std::uint64_t idx = 0; idx < 512; ++idx) {
        const DecodedIndex r = d.decode(idx);
        EXPECT_LT(r.physical_set, 512u);
        EXPECT_FALSE(seen[r.physical_set]) << "collision at update " << u;
        seen[r.physical_set] = true;
      }
      d.update();
    }
  }
}

TEST(Decoder, MonolithicSingleBank) {
  BankDecoder d = make_decoder(IndexingKind::kStatic, 1);
  const DecodedIndex r = d.decode(300);
  EXPECT_EQ(r.logical_bank, 0u);
  EXPECT_EQ(r.physical_bank, 0u);
  EXPECT_EQ(r.line, 300u);
  EXPECT_EQ(r.physical_set, 300u);
  EXPECT_EQ(r.select_mask, 1u);
}

TEST(Decoder, RejectsOutOfRangeIndex) {
  BankDecoder d = make_decoder(IndexingKind::kStatic);
  EXPECT_THROW(d.decode(512), Error);
}

// decode() reads f() from a table the decoder rebuilds at construction,
// update() and reset(); it must agree with the policy itself at every
// step, for every set, and stay a bijection on sets.
TEST(Decoder, TableFollowsThePolicy) {
  for (auto kind : {IndexingKind::kStatic, IndexingKind::kProbing,
                    IndexingKind::kScrambling}) {
    for (std::uint64_t banks : {1u, 2u, 4u, 8u, 16u}) {
      BankDecoder d = make_decoder(kind, banks);
      const unsigned line_bits = d.index_bits() - d.bank_bits();
      const auto check = [&](const std::string& when) {
        SCOPED_TRACE(d.policy().name() + " M=" + std::to_string(banks) +
                     " " + when);
        std::vector<bool> seen(512, false);
        for (std::uint64_t s = 0; s < 512; ++s) {
          const DecodedIndex r = d.decode(s);
          ASSERT_EQ(r.physical_bank, d.policy().map_bank(s >> line_bits))
              << "set " << s;
          ASSERT_LT(r.physical_set, 512u);
          ASSERT_FALSE(seen[r.physical_set]) << "set " << s;
          seen[r.physical_set] = true;
        }
      };
      check("after construction");
      for (std::uint64_t u = 1; u <= 3 * banks; ++u) {
        d.update();
        check("after update " + std::to_string(u));
      }
      d.reset();
      EXPECT_EQ(d.policy().updates(), 0u);
      check("after reset");
    }
  }
}

// A policy that stops being a permutation after a given number of
// updates: every logical bank then maps to physical bank 0.
class CollapsingPolicy final : public IndexingPolicy {
 public:
  CollapsingPolicy(std::uint64_t banks, std::uint64_t good_updates)
      : banks_(banks), good_(good_updates) {}
  std::uint64_t map_bank(std::uint64_t logical) const override {
    return updates_ < good_ ? logical : 0;
  }
  void update() override { ++updates_; }
  void reset() override { updates_ = 0; }
  std::uint64_t num_banks() const override { return banks_; }
  std::uint64_t updates() const override { return updates_; }
  std::string name() const override { return "collapsing"; }
  std::unique_ptr<IndexingPolicy> clone() const override {
    return std::make_unique<CollapsingPolicy>(*this);
  }

 private:
  std::uint64_t banks_, good_, updates_ = 0;
};

TEST(Decoder, RejectsANonPermutationAtEveryRebuild) {
  PartitionConfig part;
  part.num_banks = 4;
  EXPECT_THROW(BankDecoder(cache_8k(), part,
                           std::make_unique<CollapsingPolicy>(4, 0)),
               Error);
  BankDecoder d(cache_8k(), part, std::make_unique<CollapsingPolicy>(4, 2));
  EXPECT_NO_THROW(d.update());
  EXPECT_THROW(d.update(), Error);
  d.reset();  // back to a permutation: the rebuilt table is whole again
  EXPECT_EQ(d.decode((3u << 7) | 5u).physical_set, (3u << 7) | 5u);
}

TEST(Decoder, RejectsPolicyBankMismatch) {
  PartitionConfig part;
  part.num_banks = 4;
  EXPECT_THROW(BankDecoder(cache_8k(), part,
                           make_indexing_policy(IndexingKind::kProbing, 8)),
               ConfigError);
  EXPECT_THROW(BankDecoder(cache_8k(), part, nullptr), ConfigError);
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
