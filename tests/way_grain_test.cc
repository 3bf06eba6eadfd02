// Way-grain ManagedCache: per-way power management within each bank.
//
// The load-bearing contract is the degeneracy of the way unit map: with a
// direct-mapped cache (one way per bank set) the way-grain cache must
// reproduce the bank-grain cache bit for bit — same outcome stream, same
// tag-store stats, same per-unit activity and residencies.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/managed_cache.h"
#include "core/simulator.h"
#include "trace/trace.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

CacheTopology way_topology(std::uint64_t ways) {
  CacheTopology topo;
  topo.granularity = Granularity::kWay;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.cache.ways = ways;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  return topo;
}

Trace make_trace(std::uint64_t accesses) {
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), accesses);
  return Trace::materialize(src);
}

TEST(WayGrain, UnitCountIsBanksTimesWays) {
  EXPECT_EQ(way_topology(1).num_units(), 4u);
  EXPECT_EQ(way_topology(4).num_units(), 16u);
  auto cache = make_managed_cache(way_topology(4));
  EXPECT_EQ(cache->num_units(), 16u);
}

// The degeneracy parity: 1 way/bank == the bank grain, bit for bit.
TEST(WayGrain, DirectMappedMatchesBankedBitForBit) {
  const CacheTopology topo = way_topology(1);
  CacheTopology bank_topo = topo;
  bank_topo.granularity = Granularity::kBank;
  const Trace trace = make_trace(30'000);

  auto reference = make_managed_cache(bank_topo);
  auto mc = make_managed_cache(topo);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const AccessOutcome want = reference->access(trace[i].address, is_write);
    const AccessOutcome got = mc->access(trace[i].address, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.logical_unit, want.logical_unit) << "access " << i;
    ASSERT_EQ(got.physical_unit, want.physical_unit) << "access " << i;
    ASSERT_EQ(got.woke_unit, want.woke_unit) << "access " << i;
    ASSERT_EQ(got.wake, want.wake) << "access " << i;
    if (i % 5'000 == 4'999) {
      ASSERT_EQ(mc->update_indexing(), reference->update_indexing());
    }
  }
  reference->finish();
  mc->finish();
  EXPECT_EQ(mc->stats().hits, reference->stats().hits);
  EXPECT_EQ(mc->stats().writebacks, reference->stats().writebacks);
  EXPECT_EQ(mc->indexing_updates(), reference->indexing_updates());
  ASSERT_EQ(mc->num_units(), reference->num_units());
  for (std::uint64_t u = 0; u < mc->num_units(); ++u) {
    EXPECT_DOUBLE_EQ(mc->unit_residency(u), reference->unit_residency(u));
    const UnitActivity a = mc->unit_activity(u);
    const UnitActivity b = reference->unit_activity(u);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.sleep_cycles, b.sleep_cycles);
    EXPECT_EQ(a.sleep_episodes, b.sleep_episodes);
    EXPECT_EQ(a.gated_episodes, b.gated_episodes);
    EXPECT_EQ(a.drowsy_cycles, 0u);
  }
}

// Set-associative: each access is attributed to a way-column of the bank
// the bank grain would serve it from, nothing is lost, and every
// (bank, way) unit of a fully used cache serves accesses.
TEST(WayGrain, AssociativeAttributionConserved) {
  const CacheTopology topo = way_topology(4);
  CacheTopology bank_topo = topo;
  bank_topo.granularity = Granularity::kBank;
  const Trace trace = make_trace(30'000);
  auto cache = make_managed_cache(topo);
  auto banked = make_managed_cache(bank_topo);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const AccessOutcome out = cache->access(trace[i].address, is_write);
    const AccessOutcome bank = banked->access(trace[i].address, is_write);
    ASSERT_LT(out.physical_unit, topo.num_units());
    ASSERT_EQ(out.hit, bank.hit) << "access " << i;
    ASSERT_EQ(out.physical_unit / topo.cache.ways, bank.physical_unit)
        << "access " << i;
    ASSERT_EQ(out.logical_unit / topo.cache.ways, bank.logical_unit)
        << "access " << i;
  }
  cache->finish();

  std::uint64_t total = 0;
  for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
    const std::uint64_t accesses = cache->unit_activity(u).accesses;
    EXPECT_GT(accesses, 0u) << "unit " << u;
    total += accesses;
    EXPECT_GE(cache->unit_residency(u), 0.0);
    EXPECT_LE(cache->unit_residency(u), 1.0);
  }
  EXPECT_EQ(total, trace.size());
}

// A way-grain Simulator run reports per-way units and (unlike pre-PR-3
// non-bank granularities) nonzero energy.
TEST(WayGrain, SimulatorRunPricesEnergy) {
  SimConfig cfg;
  cfg.granularity = Granularity::kWay;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.cache.ways = 4;
  cfg.partition.num_banks = 4;
  SyntheticTraceSource src(make_hotspot_workload(64 * 1024), 100'000);
  const SimResult r = Simulator(cfg).run(src);

  EXPECT_EQ(r.granularity, Granularity::kWay);
  ASSERT_EQ(r.units.size(), 16u);
  EXPECT_GT(r.energy.baseline_pj, 0.0);
  EXPECT_GT(r.energy.partitioned.total_pj(), 0.0);
  EXPECT_LT(r.energy_saving(), 1.0);
}

// With the same breakeven, way-grain harvests at least as much idleness
// as the banked scheme on the same trace (units are strictly finer).
TEST(WayGrain, FinerGrainHarvestsMoreIdleness) {
  SimConfig bank = paper_config(8192, 16, 4);
  bank.cache.ways = 4;
  bank.breakeven_override = 24;
  SimConfig way = way_grain_variant(bank);

  SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 150'000);
  const SimResult rb = Simulator(bank).run(src);
  const SimResult rw = Simulator(way).run(src);
  EXPECT_GE(rw.avg_residency(), rb.avg_residency());
}

}  // namespace
}  // namespace pcal
