// Bank-grain ManagedCache: the paper's M-bank partition (Fig. 1 + Fig. 2)
// driven through the factory.
#include <gtest/gtest.h>

#include "cache/cache.h"
#include "core/managed_cache.h"
#include "util/error.h"

namespace pcal {
namespace {

CacheTopology config_8k(IndexingKind kind, std::uint64_t banks = 4) {
  CacheTopology c;
  c.granularity = Granularity::kBank;
  c.cache.size_bytes = 8192;
  c.cache.line_bytes = 16;
  c.partition.num_banks = banks;
  c.indexing = kind;
  c.breakeven_cycles = 16;
  return c;
}

TEST(BankedCache, HitsAndBankRouting) {
  auto bc = make_managed_cache(config_8k(IndexingKind::kStatic));
  // Address in logical bank 2: index bits [12:4]; bank = index >> 7.
  const std::uint64_t addr = (2u << 11) | 0x30;
  const AccessOutcome r1 = bc->access(addr, false);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.logical_unit, 2u);
  EXPECT_EQ(r1.physical_unit, 2u);
  const AccessOutcome r2 = bc->access(addr, false);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(bc->cycles(), 2u);
}

TEST(BankedCache, UpdateFlushesContents) {
  auto bc = make_managed_cache(config_8k(IndexingKind::kProbing));
  bc->access(0x100, true);
  EXPECT_TRUE(bc->access(0x100, false).hit);
  const std::uint64_t dirty = bc->update_indexing();
  EXPECT_EQ(dirty, 1u);  // the dirty line is written back
  EXPECT_FALSE(bc->access(0x100, false).hit);  // no stale data after remap
  EXPECT_EQ(bc->indexing_updates(), 1u);
}

TEST(BankedCache, RemapMovesPhysicalBank) {
  auto bc = make_managed_cache(config_8k(IndexingKind::kProbing));
  const std::uint64_t addr = (1u << 11);  // logical bank 1
  EXPECT_EQ(bc->access(addr, false).physical_unit, 1u);
  bc->update_indexing();
  const AccessOutcome moved = bc->access(addr, false);
  EXPECT_EQ(moved.logical_unit, 1u);
  EXPECT_EQ(moved.physical_unit, 2u);
  bc->update_indexing();
  bc->update_indexing();
  bc->update_indexing();  // 4 updates: back to identity
  EXPECT_EQ(bc->access(addr, false).physical_unit, 1u);
}

TEST(BankedCache, StaticPartitionPreservesMissBehaviour) {
  // The paper: uniform partitioning with static indexing causes *no*
  // degradation of miss rate — it is the same cache, physically split.
  const CacheTopology cfg = config_8k(IndexingKind::kStatic);
  auto banked = make_managed_cache(cfg);
  CacheModel mono(cfg.cache);

  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t addr = (x >> 24) % (64 * 1024);
    const bool write = (x & 1) != 0;
    banked->access(addr, write);
    mono.access_address(addr, write);
  }
  EXPECT_EQ(banked->stats().hits, mono.stats().hits);
  EXPECT_EQ(banked->stats().misses, mono.stats().misses);
  EXPECT_EQ(banked->stats().writebacks, mono.stats().writebacks);
}

TEST(BankedCache, ReindexedPartitionSameMissesWithinEpoch) {
  // Between updates, the remap is a fixed bijection of sets, so hit/miss
  // behaviour is identical to the monolithic cache there too.
  const CacheTopology cfg = config_8k(IndexingKind::kProbing);
  auto banked = make_managed_cache(cfg);
  banked->update_indexing();  // non-identity mapping, then no more updates
  CacheModel mono(cfg.cache);
  std::uint64_t x = 777;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t addr = (x >> 20) % (32 * 1024);
    banked->access(addr, false);
    mono.access_address(addr, false);
  }
  // The banked cache saw one flush before any fill, so stats match exactly.
  EXPECT_EQ(banked->stats().hits, mono.stats().hits);
}

TEST(BankedCache, WokeBankFlag) {
  CacheTopology cfg = config_8k(IndexingKind::kStatic);
  cfg.breakeven_cycles = 4;
  auto bc = make_managed_cache(cfg);
  const std::uint64_t bank0 = 0x0;
  const std::uint64_t bank1 = 1u << 11;
  EXPECT_FALSE(bc->access(bank1, false).woke_unit);  // cycle 0: nothing slept
  for (int i = 0; i < 10; ++i) bc->access(bank0, false);
  // Bank 1 idle for 10 cycles > breakeven 4: next access wakes it.
  EXPECT_TRUE(bc->access(bank1, false).woke_unit);
  EXPECT_FALSE(bc->access(bank1, false).woke_unit);
}

TEST(BankedCache, ResidencyAccounting) {
  CacheTopology cfg = config_8k(IndexingKind::kStatic);
  cfg.breakeven_cycles = 10;
  auto bc = make_managed_cache(cfg);
  // 1000 accesses, all to bank 0: banks 1-3 idle the whole time.
  for (int i = 0; i < 1000; ++i) bc->access(0x10, false);
  bc->finish();
  EXPECT_NEAR(bc->unit_residency(0), 0.0, 1e-9);
  for (std::uint64_t b = 1; b < 4; ++b)
    EXPECT_NEAR(bc->unit_residency(b), (1000.0 - 10.0) / 1000.0, 1e-9);
  EXPECT_THROW(bc->access(0x10, false), Error);  // finished
}

TEST(BankedCache, ScramblingEndToEnd) {
  auto bc = make_managed_cache(config_8k(IndexingKind::kScrambling, 8));
  for (int u = 0; u < 6; ++u) {
    for (std::uint64_t a = 0; a < 8192; a += 16) bc->access(a, false);
    bc->update_indexing();
  }
  bc->finish();
  // Sweeping all lines every epoch touches every physical bank equally.
  for (std::uint64_t b = 0; b < 8; ++b)
    EXPECT_EQ(bc->unit_activity(b).accesses, 6u * 512u / 8u);
}

TEST(BankedCache, ValidatesConfig) {
  CacheTopology cfg = config_8k(IndexingKind::kStatic);
  cfg.partition.num_banks = 3;
  EXPECT_THROW(make_managed_cache(cfg), ConfigError);
}

}  // namespace
}  // namespace pcal
