// Line-grain ManagedCache: reference [7]'s per-line management with
// full-index dynamic indexing, driven through the factory.
#include <gtest/gtest.h>

#include <vector>

#include "core/managed_cache.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

CacheTopology config_1k(IndexingKind kind) {
  CacheTopology c;
  c.granularity = Granularity::kLine;
  c.cache.size_bytes = 1024;
  c.cache.line_bytes = 16;  // 64 lines
  c.indexing = kind;
  c.breakeven_cycles = 8;
  return c;
}

TEST(LineManaged, HitsAndUnits) {
  auto lm = make_managed_cache(config_1k(IndexingKind::kStatic));
  EXPECT_EQ(lm->num_units(), 64u);
  EXPECT_FALSE(lm->access(0x100, false).hit);
  EXPECT_TRUE(lm->access(0x100, false).hit);
  EXPECT_EQ(lm->cycles(), 2u);
}

TEST(LineManaged, ProbingRotatesWholeIndex) {
  auto lm = make_managed_cache(config_1k(IndexingKind::kProbing));
  const AccessOutcome r0 = lm->access(0x100, false);  // logical set 16
  EXPECT_EQ(r0.logical_unit, 16u);
  EXPECT_EQ(r0.physical_unit, 16u);
  lm->update_indexing();
  const AccessOutcome r1 = lm->access(0x100, false);
  EXPECT_EQ(r1.physical_unit, 17u);  // +1 mod 64
  // Wrap-around at the top line.
  const AccessOutcome r2 = lm->access(63u << 4, false);  // logical set 63
  EXPECT_EQ(r2.physical_unit, 0u);
}

TEST(LineManaged, UpdateFlushes) {
  auto lm = make_managed_cache(config_1k(IndexingKind::kProbing));
  lm->access(0x100, true);
  EXPECT_EQ(lm->update_indexing(), 1u);  // the dirty line flushes
  EXPECT_FALSE(lm->access(0x100, false).hit);
}

TEST(LineManaged, ScramblingIsPerSetPermutation) {
  auto lm = make_managed_cache(config_1k(IndexingKind::kScrambling));
  for (int u = 0; u < 5; ++u) {
    std::vector<bool> seen(64, false);
    for (std::uint64_t s = 0; s < 64; ++s) {
      const AccessOutcome r = lm->access(s << 4, false);
      EXPECT_LT(r.physical_unit, 64u);
      EXPECT_FALSE(seen[r.physical_unit]);
      seen[r.physical_unit] = true;
    }
    lm->update_indexing();
  }
}

TEST(LineManaged, ResidencyPerLine) {
  CacheTopology cfg = config_1k(IndexingKind::kStatic);
  cfg.breakeven_cycles = 4;
  auto lm = make_managed_cache(cfg);
  // Hammer one line; all others idle.
  for (int i = 0; i < 1000; ++i) lm->access(0x0, false);
  lm->finish();
  EXPECT_NEAR(lm->unit_residency(0), 0.0, 1e-9);
  EXPECT_NEAR(lm->unit_residency(1), (1000.0 - 4.0) / 1000.0, 1e-9);
  EXPECT_NEAR(lm->min_residency(), 0.0, 1e-9);
  EXPECT_GT(lm->avg_residency(), 0.97);
}

TEST(LineManaged, WokeLineFlag) {
  CacheTopology cfg = config_1k(IndexingKind::kStatic);
  cfg.breakeven_cycles = 3;
  auto lm = make_managed_cache(cfg);
  lm->access(0x0, false);
  for (int i = 0; i < 6; ++i) lm->access(0x10, false);
  EXPECT_TRUE(lm->access(0x0, false).woke_unit);
}

TEST(LineManaged, FineGrainBeatsCoarseOnResidency) {
  // The reason [7] is the upper bound: within an active bank, untouched
  // lines still sleep at line granularity.  One hot line per 2kB region:
  // bank-level residency of the hot banks ~0, line-level average high.
  auto spec = make_hotspot_workload(8192, 1.0, 1.0);  // all banks active
  SyntheticTraceSource src(spec, 200'000);
  CacheTopology cfg;
  cfg.granularity = Granularity::kLine;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.indexing = IndexingKind::kStatic;
  cfg.breakeven_cycles = 28;
  auto lm = make_managed_cache(cfg);
  while (auto a = src.next())
    lm->access(a->address, a->kind == AccessKind::kWrite);
  lm->finish();
  // Zipf streams concentrate on a few lines per bank: most lines sleep.
  EXPECT_GT(lm->avg_residency(), 0.5);
}

TEST(LineManaged, RejectsAfterFinish) {
  auto lm = make_managed_cache(config_1k(IndexingKind::kStatic));
  lm->access(0, false);
  lm->finish();
  EXPECT_THROW(lm->access(0, false), Error);
  EXPECT_THROW(lm->update_indexing(), Error);
}

}  // namespace
}  // namespace pcal
