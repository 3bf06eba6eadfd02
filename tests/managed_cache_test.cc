// Backend parity and factory tests for the polymorphic ManagedCache API.
//
// The unified interface must be a zero-cost veneer: driving a backend
// through ManagedCache must reproduce the concrete class's outcome stream
// bit for bit.  These tests pin that contract for all three granularities,
// plus the factory over the full Granularity x IndexingKind matrix.
#include "core/managed_cache.h"

#include <gtest/gtest.h>

#include "bank/banked_cache.h"
#include "bank/line_managed_cache.h"
#include "cache/cache.h"
#include "core/enum_strings.h"
#include "core/monolithic_cache.h"
#include "route_chain.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

CacheTopology base_topology(Granularity g) {
  CacheTopology topo;
  topo.granularity = g;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.cache.ways = 1;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  return topo;
}

Trace make_trace(std::uint64_t accesses) {
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), accesses);
  return Trace::materialize(src);
}

TEST(GranularityStrings, RoundTrip) {
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay})
    EXPECT_EQ(granularity_from_string(to_string(g)), g);
  EXPECT_THROW(granularity_from_string("banked"), ConfigError);
}

TEST(IndexingKindStrings, RoundTrip) {
  for (IndexingKind k : {IndexingKind::kStatic, IndexingKind::kProbing,
                         IndexingKind::kScrambling})
    EXPECT_EQ(indexing_kind_from_string(to_string(k)), k);
  EXPECT_THROW(indexing_kind_from_string("probe"), ConfigError);
}

TEST(PowerPolicyStrings, RoundTrip) {
  // to_string spells the hybrid "drowsy"; the parser must accept both
  // that short form and the enum's own "drowsy_hybrid" spelling, so
  // every to_string output round-trips.
  for (PowerPolicy p : {PowerPolicy::kGated, PowerPolicy::kDrowsyHybrid})
    EXPECT_EQ(power_policy_from_string(to_string(p)), p);
  EXPECT_EQ(power_policy_from_string("drowsy_hybrid"),
            PowerPolicy::kDrowsyHybrid);
  EXPECT_EQ(power_policy_from_string("drowsy"),
            PowerPolicy::kDrowsyHybrid);
  EXPECT_THROW(power_policy_from_string("drowsyhybrid"), ConfigError);
  EXPECT_THROW(power_policy_from_string("sleepy"), ConfigError);
}

TEST(InclusionPolicyStrings, RoundTrip) {
  for (InclusionPolicy p :
       {InclusionPolicy::kNonInclusive, InclusionPolicy::kInclusive,
        InclusionPolicy::kExclusive, InclusionPolicy::kVictim})
    EXPECT_EQ(inclusion_policy_from_string(to_string(p)), p);
  EXPECT_EQ(inclusion_policy_from_string("non-inclusive"),
            InclusionPolicy::kNonInclusive);
  EXPECT_THROW(inclusion_policy_from_string("mostly-inclusive"),
               ConfigError);
}

TEST(CacheTopology, UnitCounts) {
  EXPECT_EQ(base_topology(Granularity::kMonolithic).num_units(), 1u);
  EXPECT_EQ(base_topology(Granularity::kBank).num_units(), 4u);
  EXPECT_EQ(base_topology(Granularity::kLine).num_units(), 512u);
  EXPECT_EQ(base_topology(Granularity::kWay).num_units(), 4u);
  CacheTopology assoc = base_topology(Granularity::kWay);
  assoc.cache.ways = 4;
  EXPECT_EQ(assoc.num_units(), 16u);
}

TEST(CacheTopology, Describe) {
  EXPECT_EQ(base_topology(Granularity::kBank).describe(),
            "8kB/16B/DM M=4 probing");
  EXPECT_EQ(base_topology(Granularity::kMonolithic).describe(),
            "8kB/16B/DM M=1 probing");
  EXPECT_EQ(base_topology(Granularity::kLine).describe(),
            "8kB/16B/DM line-grain probing");
}

// kMonolithic must reproduce CacheModel::access_address exactly: same
// hit/miss/writeback stream, same stats.
TEST(BackendParity, MonolithicMatchesCacheModel) {
  const CacheTopology topo = base_topology(Granularity::kMonolithic);
  const Trace trace = make_trace(20'000);

  CacheModel reference(topo.cache);
  auto unified = make_managed_cache(topo);
  ManagedCache& mc = *unified;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const CacheAccessResult want =
        reference.access_address(trace[i].address, is_write);
    const AccessOutcome got = mc.access(trace[i].address, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.physical_unit, 0u);
  }
  mc.finish();
  EXPECT_EQ(mc.stats().hits, reference.stats().hits);
  EXPECT_EQ(mc.stats().misses, reference.stats().misses);
  EXPECT_EQ(mc.stats().writebacks, reference.stats().writebacks);
  EXPECT_EQ(mc.cycles(), trace.size());
  EXPECT_EQ(mc.num_units(), 1u);
}

// kBank must reproduce BankedCache outcomes on the same trace, including
// across re-indexing updates.
TEST(BackendParity, BankMatchesBankedCache) {
  const CacheTopology topo = base_topology(Granularity::kBank);
  const Trace trace = make_trace(20'000);

  BankedCacheConfig bc;
  bc.cache = topo.cache;
  bc.partition = topo.partition;
  bc.indexing = topo.indexing;
  bc.indexing_seed = topo.indexing_seed;
  bc.breakeven_cycles = topo.breakeven_cycles;
  BankedCache reference(bc);

  auto unified = make_managed_cache(topo);
  ManagedCache& mc = *unified;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const BankedAccessOutcome want =
        reference.access(trace[i].address, is_write);
    const AccessOutcome got = mc.access(trace[i].address, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.logical_unit, want.logical_bank) << "access " << i;
    ASSERT_EQ(got.physical_unit, want.physical_bank) << "access " << i;
    ASSERT_EQ(got.woke_unit, want.woke_bank) << "access " << i;
    if (i % 5'000 == 4'999) {
      EXPECT_EQ(mc.update_indexing(), reference.update_indexing());
    }
  }
  reference.finish();
  mc.finish();
  EXPECT_EQ(mc.indexing_updates(), reference.indexing_updates());
  EXPECT_EQ(mc.stats().hits, reference.cache().stats().hits);
  EXPECT_EQ(mc.stats().flushes, reference.cache().stats().flushes);
  ASSERT_EQ(mc.num_units(), 4u);
  for (std::uint64_t b = 0; b < 4; ++b) {
    EXPECT_DOUBLE_EQ(mc.unit_residency(b), reference.bank_residency(b));
    const UnitActivity a = mc.unit_activity(b);
    EXPECT_EQ(a.accesses, reference.block_control().accesses(b));
    EXPECT_EQ(a.sleep_cycles, reference.block_control().sleep_cycles(b));
    EXPECT_EQ(a.sleep_episodes,
              reference.block_control().sleep_episodes(b));
  }
}

// kLine must reproduce LineManagedCache outcomes on the same trace.
TEST(BackendParity, LineMatchesLineManagedCache) {
  const CacheTopology topo = base_topology(Granularity::kLine);
  const Trace trace = make_trace(20'000);

  LineManagedConfig lc;
  lc.cache = topo.cache;
  lc.indexing = topo.indexing;
  lc.indexing_seed = topo.indexing_seed;
  lc.breakeven_cycles = topo.breakeven_cycles;
  LineManagedCache reference(lc);

  auto unified = make_managed_cache(topo);
  ManagedCache& mc = *unified;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const LineAccessOutcome want =
        reference.access(trace[i].address, is_write);
    const AccessOutcome got = mc.access(trace[i].address, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.logical_unit, want.logical_set) << "access " << i;
    ASSERT_EQ(got.physical_unit, want.physical_set) << "access " << i;
    ASSERT_EQ(got.woke_unit, want.woke_line) << "access " << i;
    if (i % 4'000 == 3'999) {
      EXPECT_EQ(mc.update_indexing(), reference.update_indexing());
    }
  }
  reference.finish();
  mc.finish();
  ASSERT_EQ(mc.num_units(), reference.num_units());
  EXPECT_DOUBLE_EQ(mc.avg_residency(), reference.avg_residency());
  EXPECT_DOUBLE_EQ(mc.min_residency(), reference.min_residency());
}

// Every Granularity x IndexingKind combination constructs, runs, updates
// and reports consistently through the factory.
TEST(Factory, RoundTripAllCombinations) {
  const Trace trace = make_trace(4'000);
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay}) {
    for (IndexingKind k : {IndexingKind::kStatic, IndexingKind::kProbing,
                           IndexingKind::kScrambling}) {
      CacheTopology topo = base_topology(g);
      topo.indexing = k;
      auto cache = make_managed_cache(topo);
      ASSERT_NE(cache, nullptr);
      EXPECT_EQ(cache->num_units(), topo.num_units());

      for (std::size_t i = 0; i < trace.size(); ++i) {
        const AccessOutcome out = cache->access(
            trace[i].address, trace[i].kind == AccessKind::kWrite);
        ASSERT_LT(out.physical_unit, topo.num_units());
      }
      cache->update_indexing();
      EXPECT_EQ(cache->stats().flushes, 1u);
      cache->finish();

      EXPECT_EQ(cache->cycles(), trace.size());
      EXPECT_EQ(cache->stats().accesses, trace.size());
      std::uint64_t unit_accesses = 0;
      for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
        unit_accesses += cache->unit_activity(u).accesses;
        EXPECT_GE(cache->unit_residency(u), 0.0);
        EXPECT_LE(cache->unit_residency(u), 1.0);
      }
      EXPECT_EQ(unit_accesses, trace.size());
      EXPECT_LE(cache->min_residency(), cache->avg_residency() + 1e-12);
    }
  }
}

// ---- advance_idle edge cases, at every granularity ----
//
// Every backend (the drowsy hybrid wrapper and a two-level routed chain
// included) must treat a zero-cycle advance as a no-op, reject time
// advancing after finish(), and turn an idle-only run into full sleep
// residency.

std::vector<CacheTopology> all_backend_topologies() {
  std::vector<CacheTopology> topos;
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay})
    topos.push_back(base_topology(g));
  CacheTopology hybrid = base_topology(Granularity::kBank);
  hybrid.policy = PowerPolicy::kDrowsyHybrid;
  hybrid.drowsy_window_cycles = 40;
  topos.push_back(hybrid);
  return topos;
}

/// A two-level routed chain: L1 over a 32kB L2, both bank-grain.
RouteChain two_level_chain() {
  CacheTopology l2 = base_topology(Granularity::kBank);
  l2.cache.size_bytes = 32 * 1024;
  return RouteChain(
      {{base_topology(Granularity::kBank), InclusionPolicy::kNonInclusive},
       {l2, InclusionPolicy::kNonInclusive}});
}

TEST(AdvanceIdle, ZeroCycleAdvanceIsANoOp) {
  for (const CacheTopology& topo : all_backend_topologies()) {
    auto cache = make_managed_cache(topo);
    cache->access(0x40, false);
    const std::uint64_t before = cache->cycles();
    cache->advance_idle(0);
    EXPECT_EQ(cache->cycles(), before) << topo.describe();
  }
  RouteChain chain = two_level_chain();
  chain.access(0x40, false);
  chain.advance_idle(0);
  for (std::size_t i = 0; i < chain.num_levels(); ++i)
    EXPECT_EQ(chain.level(i).cycles(), 1u) << "level " << i;
}

TEST(AdvanceIdle, RejectedAfterFinish) {
  for (const CacheTopology& topo : all_backend_topologies()) {
    auto cache = make_managed_cache(topo);
    cache->access(0x40, false);
    cache->finish();
    cache->finish();  // idempotent
    EXPECT_THROW(cache->advance_idle(1), Error) << topo.describe();
    EXPECT_THROW(cache->access(0x40, false), Error) << topo.describe();
  }
  RouteChain chain = two_level_chain();
  chain.access(0x40, false);
  chain.finish();
  EXPECT_THROW(chain.advance_idle(1), Error);
  EXPECT_THROW(chain.access(0x40, false), Error);
}

TEST(AdvanceIdle, IdleOnlyRunSleepsFullyAtEveryGranularity) {
  constexpr std::uint64_t kIdle = 10'000;
  for (const CacheTopology& topo : all_backend_topologies()) {
    auto cache = make_managed_cache(topo);
    cache->advance_idle(kIdle);
    cache->finish();
    EXPECT_EQ(cache->cycles(), kIdle);
    const double expected =
        static_cast<double>(kIdle - topo.breakeven_cycles) /
        static_cast<double>(kIdle);
    for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
      EXPECT_DOUBLE_EQ(cache->unit_residency(u), expected)
          << topo.describe() << " unit " << u;
      const UnitActivity a = cache->unit_activity(u);
      EXPECT_EQ(a.accesses, 0u);
      EXPECT_EQ(a.sleep_cycles, kIdle - topo.breakeven_cycles);
      EXPECT_EQ(a.sleep_episodes, 1u);
      if (topo.drowsy_active()) {
        // One interval spanning the whole run: the drowsy share is the
        // window, the rest deepened into the gated state.
        EXPECT_EQ(a.drowsy_cycles, topo.drowsy_window_cycles);
        EXPECT_EQ(a.gated_episodes, 1u);
      }
    }
  }
  RouteChain chain = two_level_chain();
  chain.advance_idle(kIdle);
  chain.finish();
  const double expected = static_cast<double>(kIdle - 24) /
                          static_cast<double>(kIdle);
  for (std::size_t i = 0; i < chain.num_levels(); ++i)
    for (std::uint64_t u = 0; u < chain.level(i).num_units(); ++u)
      EXPECT_DOUBLE_EQ(chain.level(i).unit_residency(u), expected)
          << "level " << i << " unit " << u;
}

TEST(Factory, RejectsInvalidTopology) {
  CacheTopology topo = base_topology(Granularity::kBank);
  topo.partition.num_banks = 3;
  EXPECT_THROW(make_managed_cache(topo), ConfigError);
  topo = base_topology(Granularity::kLine);
  topo.breakeven_cycles = 0;
  EXPECT_THROW(make_managed_cache(topo), ConfigError);
}

}  // namespace
}  // namespace pcal
