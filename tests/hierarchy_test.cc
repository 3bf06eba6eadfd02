// N-level hierarchies: route_access's inclusion-policy streams over
// test-owned backends, and multi-level Simulator runs.
//
// Contracts: absent or zero-size lower levels mean single-level results,
// bit for bit; a non-inclusive level's access stream is exactly its
// upper neighbour's miss stream on the same global clock;
// exclusive/victim levels consume the eviction stream; inclusive levels
// add back-invalidation flush coupling; the unit vector concatenates
// the levels in order; and every stack depth and inclusion policy keeps
// the idealized clock without latencies and stalls with them.
#include "core/hierarchy.h"

#include <gtest/gtest.h>

#include "core/enum_strings.h"
#include "core/experiment.h"
#include "core/simulator.h"
#include "route_chain.h"
#include "trace/trace.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

CacheTopology small_topology(std::uint64_t size_bytes,
                             std::uint64_t banks) {
  CacheTopology topo;
  topo.granularity = Granularity::kBank;
  topo.cache.size_bytes = size_bytes;
  topo.cache.line_bytes = 16;
  topo.partition.num_banks = banks;
  topo.indexing = IndexingKind::kStatic;
  topo.breakeven_cycles = 24;
  return topo;
}

std::vector<LevelConfig> two_level(const CacheTopology& l1,
                                   const CacheTopology& l2,
                                   InclusionPolicy inclusion =
                                       InclusionPolicy::kNonInclusive) {
  return {{l1, InclusionPolicy::kNonInclusive}, {l2, inclusion}};
}

Trace workload_trace(const char* name, std::uint64_t accesses) {
  SyntheticTraceSource src(make_mediabench_workload(name), accesses);
  return Trace::materialize(src);
}

void drive(RouteChain& chain, const Trace& trace) {
  for (std::size_t i = 0; i < trace.size(); ++i)
    chain.access(trace[i].address, trace[i].kind == AccessKind::kWrite);
  chain.finish();
}

TEST(Hierarchy, L2StreamIsTheL1MissStream) {
  RouteChain chain(
      two_level(small_topology(4096, 4), small_topology(32768, 4)));

  const Trace trace = workload_trace("cjpeg", 60'000);
  drive(chain, trace);

  EXPECT_EQ(chain.stats(0).accesses, trace.size());
  EXPECT_EQ(chain.stats(1).accesses, chain.stats(0).misses);
  EXPECT_GT(chain.stats(1).accesses, 0u);
  // A 8x larger L2 behind a small L1 must catch some of its misses.
  EXPECT_GT(chain.stats(1).hit_rate(), 0.0);
  // Both levels live on the global clock.
  EXPECT_EQ(chain.level(0).cycles(), trace.size());
  EXPECT_EQ(chain.level(1).cycles(), trace.size());
  // L1's 4 banks and L2's 4 banks (a run concatenates them:
  // SimulatorRunReportsAllLevels).
  EXPECT_EQ(chain.level(0).num_units(), 4u);
  EXPECT_EQ(chain.level(1).num_units(), 4u);
}

TEST(Hierarchy, ThreeLevelsChainTheMissStreams) {
  RouteChain chain({{small_topology(4096, 4), InclusionPolicy::kNonInclusive},
                    {small_topology(16384, 4), InclusionPolicy::kNonInclusive},
                    {small_topology(65536, 4), InclusionPolicy::kNonInclusive}});

  const Trace trace = workload_trace("dijkstra", 80'000);
  drive(chain, trace);

  ASSERT_EQ(chain.num_levels(), 3u);
  // Each level consumes exactly its upper neighbour's miss stream ...
  EXPECT_EQ(chain.stats(1).accesses, chain.stats(0).misses);
  EXPECT_EQ(chain.stats(2).accesses, chain.stats(1).misses);
  EXPECT_GT(chain.stats(2).accesses, 0u);
  // ... and every level stays on the global clock.
  std::uint64_t units = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chain.level(i).cycles(), trace.size());
    units += chain.level(i).num_units();
  }
  EXPECT_EQ(units, 12u);
}

TEST(Hierarchy, L2SleepsMoreThanItWouldStandalone) {
  // The L2 only wakes for L1 misses, so with a filter in front its
  // residency must beat the same cache absorbing the full stream.
  const CacheTopology l2 = small_topology(32768, 4);
  RouteChain chain(two_level(small_topology(8192, 4), l2));
  auto standalone = make_managed_cache(l2);

  const Trace trace = workload_trace("sha", 80'000);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool w = trace[i].kind == AccessKind::kWrite;
    chain.access(trace[i].address, w);
    standalone->access(trace[i].address, w);
  }
  chain.finish();
  standalone->finish();

  double chained = 0.0, alone = 0.0;
  for (std::uint64_t u = 0; u < 4; ++u) {
    chained += chain.level(1).unit_residency(u);
    alone += standalone->unit_residency(u);
  }
  EXPECT_GT(chained, alone);
}

// The ISSUE's degeneracy: a zero-size lower level means single-level,
// and the results match the plain run bit for bit.
TEST(Hierarchy, ZeroSizeL2MatchesSingleLevel) {
  const SimConfig single = paper_config(8192, 16, 4);
  SimConfig zero_l2 = single;
  LevelConfig l2;
  l2.topology = small_topology(32768, 4);
  l2.topology.cache.size_bytes = 0;  // disabled
  zero_l2.lower_levels.push_back(l2);
  EXPECT_FALSE(zero_l2.hierarchy_enabled());

  SyntheticTraceSource sa(make_mediabench_workload("cjpeg"), 100'000);
  SyntheticTraceSource sb(make_mediabench_workload("cjpeg"), 100'000);
  const SimResult a = Simulator(single).run(sa);
  const SimResult b = Simulator(zero_l2).run(sb);

  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.config_label, b.config_label);
  ASSERT_EQ(a.units.size(), b.units.size());
  EXPECT_EQ(b.l1_units(), b.units.size());
  EXPECT_EQ(b.num_levels(), 1u);
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles);
    EXPECT_DOUBLE_EQ(a.units[u].sleep_residency,
                     b.units[u].sleep_residency);
  }
  EXPECT_DOUBLE_EQ(a.energy.partitioned.total_pj(),
                   b.energy.partitioned.total_pj());
  EXPECT_DOUBLE_EQ(a.energy.baseline_pj, b.energy.baseline_pj);
}

TEST(Hierarchy, SimulatorRunReportsAllLevels) {
  const SimConfig two =
      two_level_variant(paper_config(8192, 16, 4), 64 * 1024, 4, 64);
  SyntheticTraceSource src(make_mediabench_workload("dijkstra"), 120'000);
  const SimResult r = Simulator(two).run(src);

  ASSERT_EQ(r.num_levels(), 2u);
  EXPECT_EQ(r.level_stats[1].accesses, r.cache_stats.misses);
  EXPECT_EQ(r.units.size(), 8u);
  EXPECT_EQ(r.l1_units(), 4u);
  ASSERT_EQ(r.level_units.size(), 2u);
  EXPECT_EQ(r.level_units[0] + r.level_units[1], r.units.size());
  // Both levels are priced by the per-unit model: nonzero energy.
  EXPECT_GT(r.energy.partitioned.total_pj(), 0.0);
  EXPECT_GT(r.energy.baseline_pj, 0.0);
  EXPECT_LT(r.energy_saving(), 1.0);
  // The L2 units (behind the miss filter) sleep more than the L1 units.
  double l1_res = 0.0, l2_res = 0.0;
  for (std::size_t u = 0; u < 4; ++u) {
    l1_res += r.units[u].sleep_residency;
    l2_res += r.units[4 + u].sleep_residency;
  }
  EXPECT_GT(l2_res, l1_res);
}

TEST(Hierarchy, ConfigLabelCarriesEveryLevelTopology) {
  // BENCH JSON rows must distinguish hierarchy configurations: the label
  // concatenates each level's describe(), tagged with its depth and any
  // non-default inclusion policy.
  SimConfig three =
      two_level_variant(paper_config(8192, 16, 4), 64 * 1024, 4, 64);
  three = with_lower_level(three, 256 * 1024, 8, 128,
                           InclusionPolicy::kVictim);
  SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 40'000);
  const SimResult r = Simulator(three).run(src);

  EXPECT_NE(r.config_label.find("8kB/16B/DM M=4 probing"),
            std::string::npos)
      << r.config_label;
  EXPECT_NE(r.config_label.find("| L2 64kB/16B/DM M=4"),
            std::string::npos)
      << r.config_label;
  EXPECT_NE(r.config_label.find("| L3/victim 256kB/16B/DM M=8"),
            std::string::npos)
      << r.config_label;
}

TEST(Hierarchy, LifetimeCoversAllLevels) {
  AgingContext aging;
  const SimConfig two =
      two_level_variant(paper_config(8192, 16, 4), 32 * 1024, 4, 64);
  SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 80'000);
  const SimResult r = Simulator(two).run(src, &aging.lut());
  ASSERT_TRUE(r.lifetime.has_value());
  EXPECT_EQ(r.lifetime->banks.size(), 8u);
  for (const auto& u : r.units) EXPECT_GT(u.lifetime_years, 0.0);
}

TEST(Hierarchy, MonolithicL1IsNotFlushedByAttachingAnL2) {
  // A single-unit level has nothing to rotate over: attaching an L2
  // must not change the L1's behavior (the single-level engine
  // suppresses updates for it; the hierarchy must apply the same
  // per-level rule even though the combined unit count is > 1).
  SimConfig mono = paper_config(8192, 16, 4);
  mono.granularity = Granularity::kMonolithic;  // indexing stays probing
  SimConfig mono_l2 = two_level_variant(mono, 64 * 1024, 4, 64);
  mono_l2.lower_levels[0].topology.indexing = IndexingKind::kStatic;

  SyntheticTraceSource sa(make_mediabench_workload("rijndael_i"), 80'000);
  SyntheticTraceSource sb(make_mediabench_workload("rijndael_i"), 80'000);
  const SimResult a = Simulator(mono).run(sa);
  const SimResult b = Simulator(mono_l2).run(sb);

  EXPECT_EQ(a.cache_stats.flushes, 0u);
  EXPECT_EQ(b.cache_stats.flushes, 0u);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  ASSERT_EQ(b.num_levels(), 2u);
  EXPECT_EQ(b.level_stats[1].flushes, 0u);
}

TEST(Hierarchy, StaticL2SurvivesL1ReindexFlushes) {
  // The update signal only enters rotating levels: a static-indexed L2
  // must keep backing the L1 across its re-index flushes (it exists to
  // catch exactly those refill misses).
  SimConfig two =
      two_level_variant(paper_config(8192, 16, 4), 64 * 1024, 4, 64);
  two.lower_levels[0].topology.indexing = IndexingKind::kStatic;
  SyntheticTraceSource src(make_mediabench_workload("rijndael_i"),
                           100'000);
  const SimResult r = Simulator(two).run(src);
  EXPECT_EQ(r.reindex_updates_applied, 16u);
  EXPECT_EQ(r.cache_stats.flushes, 16u);       // L1 flushes on update
  ASSERT_EQ(r.num_levels(), 2u);
  EXPECT_EQ(r.level_stats[1].flushes, 0u);     // L2 does not
  EXPECT_GT(r.level_stats[1].hit_rate(), 0.5); // and backs the refills
}

TEST(Hierarchy, InclusiveFlushCouplingBackInvalidatesTheUpperLevel) {
  // Flushing an inclusive level invalidates content its upper neighbour
  // may still hold, so the update cascade flushes the neighbour too —
  // even one that does not rotate itself.
  SimConfig base = paper_config(8192, 16, 4);
  base.indexing = IndexingKind::kStatic;  // L1 never rotates
  base.reindex_updates = 1;
  SimResult r[2];
  int i = 0;
  for (const InclusionPolicy inclusion :
       {InclusionPolicy::kInclusive, InclusionPolicy::kNonInclusive}) {
    SimConfig two = with_lower_level(base, 64 * 1024, 4, 24, inclusion);
    two.lower_levels[0].topology.indexing = IndexingKind::kProbing;
    SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 30'000);
    r[i++] = Simulator(two).run(src);
  }
  const SimResult& inclusive = r[0];
  const SimResult& noninclusive = r[1];

  // Both flush the rotating L2; only the inclusive link drags L1 along.
  EXPECT_EQ(inclusive.reindex_updates_applied, 1u);
  EXPECT_EQ(inclusive.level_stats[1].flushes, 1u);
  EXPECT_EQ(noninclusive.level_stats[1].flushes, 1u);
  EXPECT_EQ(inclusive.level_stats[0].flushes, 1u);
  EXPECT_EQ(noninclusive.level_stats[0].flushes, 0u);
}

TEST(Hierarchy, InclusiveEvictionBackInvalidatesOnlyTheVictimLine) {
  // An inclusive level evicting one line must drop exactly that line
  // from its upper neighbours — a single-line invalidation, not the
  // flush cascade of the previous test.  L1 is larger than L2 here so
  // the L2 conflict (A vs B share L2 set 0) lands in two different L1
  // sets: the victim stays L1-resident until back-invalidation, and an
  // unrelated resident line (C) proves nothing else was dropped.
  const CacheTopology l1 = small_topology(8192, 1);  // 512 lines
  const CacheTopology l2 = small_topology(4096, 1);  // 256 lines
  RouteChain inclusive(two_level(l1, l2, InclusionPolicy::kInclusive));
  RouteChain control(two_level(l1, l2, InclusionPolicy::kNonInclusive));

  const std::uint64_t A = 0, B = 4096, C = 16;
  for (RouteChain* c : {&inclusive, &control}) {
    c->access(A, false);
    c->access(C, false);
    c->access(B, false);  // evicts A from L2 set 0
    c->access(C, false);  // must still hit L1: no flush happened
    c->access(A, false);  // inclusive: back-invalidated, so L1 misses
    c->finish();
  }
  EXPECT_EQ(inclusive.stats(0).flushes, 0u);
  EXPECT_EQ(inclusive.stats(0).hits, 1u);  // C only
  EXPECT_EQ(control.stats(0).hits, 2u);    // C and A
  // The re-fetch of A goes back down to L2 on the inclusive stack.
  EXPECT_EQ(inclusive.stats(1).accesses, control.stats(1).accesses + 1);
}

TEST(Hierarchy, VictimLevelConsumesExactlyTheEvictionStream) {
  const CacheTopology l1 = small_topology(4096, 4);
  const CacheTopology vc = small_topology(16384, 4);
  RouteChain chain(two_level(l1, vc, InclusionPolicy::kVictim));
  auto reference = make_managed_cache(l1);

  const Trace trace = workload_trace("dijkstra", 60'000);
  std::uint64_t evictions = 0, dirty_evictions = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool w = trace[i].kind == AccessKind::kWrite;
    chain.access(trace[i].address, w);
    const AccessOutcome out = reference->access(trace[i].address, w);
    if (!out.hit && out.evicted) {
      ++evictions;
      if (out.writeback) ++dirty_evictions;
    }
  }
  chain.finish();
  reference->finish();

  // The victim level was referenced once per L1 eviction — never for
  // hits or victimless (cold) misses — and dirty victims arrive as
  // writes.
  EXPECT_GT(evictions, 0u);
  EXPECT_EQ(chain.stats(1).accesses, evictions);
  EXPECT_LT(chain.stats(1).accesses, chain.stats(0).misses);
  // Clocks still agree: unreferenced cycles idle.
  EXPECT_EQ(chain.level(1).cycles(), trace.size());
}

TEST(Hierarchy, ExclusiveLevelProbesColdMissesAndInstallsVictims) {
  const CacheTopology l1 = small_topology(4096, 4);
  const CacheTopology l2 = small_topology(16384, 4);
  RouteChain chain(two_level(l1, l2, InclusionPolicy::kExclusive));
  auto reference = make_managed_cache(l1);

  const Trace trace = workload_trace("dijkstra", 60'000);
  std::uint64_t evictions = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool w = trace[i].kind == AccessKind::kWrite;
    chain.access(trace[i].address, w);
    const AccessOutcome out = reference->access(trace[i].address, w);
    if (!out.hit && out.evicted) ++evictions;
  }
  chain.finish();
  reference->finish();

  // Every L1 miss references the exclusive level exactly once (install
  // or probe), so its access count equals the L1 miss count — but only
  // the eviction stream *fills* it: probes allocate nothing, so the
  // level never holds more lines than were evicted from above.
  EXPECT_EQ(chain.stats(1).accesses, chain.stats(0).misses);
  EXPECT_GT(chain.stats(1).accesses, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_LE(chain.level(1).cache().valid_lines(), evictions);
  EXPECT_EQ(chain.level(1).cycles(), trace.size());
}

TEST(Hierarchy, ExclusiveAndNonInclusiveHoldDifferentContent) {
  // Non-inclusive fills allocate the missed line below; exclusive
  // installs the evicted victim instead.  After the same trace the two
  // lower levels must have diverged.  (An irregular workload and a
  // set-associative L1 are both needed: under a pure cyclic scan the
  // LRU eviction stream is the miss stream shifted by one, which makes
  // the two lower levels coincide.)
  CacheTopology l1 = small_topology(4096, 4);
  l1.cache.ways = 4;
  const CacheTopology l2 = small_topology(16384, 4);
  RouteChain exclusive(two_level(l1, l2, InclusionPolicy::kExclusive));
  RouteChain noninclusive(two_level(l1, l2, InclusionPolicy::kNonInclusive));

  SyntheticTraceSource src(make_hotspot_workload(64 * 1024), 60'000);
  const Trace trace = Trace::materialize(src);
  drive(exclusive, trace);
  drive(noninclusive, trace);

  EXPECT_NE(exclusive.stats(1).hits, noninclusive.stats(1).hits);
}

TEST(Hierarchy, HybridPolicyComposesPerLevel) {
  // An L1 gated / L2 drowsy hierarchy: the policy is per-topology.
  SimConfig two =
      two_level_variant(paper_config(8192, 16, 4), 32 * 1024, 4, 64);
  two.lower_levels[0].topology.policy = PowerPolicy::kDrowsyHybrid;
  two.lower_levels[0].topology.drowsy_window_cycles = 128;
  SyntheticTraceSource src(make_mediabench_workload("sha"), 100'000);
  const SimResult r = Simulator(two).run(src);
  // Only the L2 units can report drowsy cycles.
  for (std::size_t u = 0; u < r.l1_units(); ++u)
    EXPECT_EQ(r.units[u].drowsy_cycles, 0u);
  std::uint64_t l2_drowsy = 0;
  for (std::size_t u = r.l1_units(); u < r.units.size(); ++u)
    l2_drowsy += r.units[u].drowsy_cycles;
  EXPECT_GT(l2_drowsy, 0u);
  EXPECT_GT(r.energy.partitioned.leakage_drowsy_pj, 0.0);
}

// ---- depth x inclusion x clock ----

struct Stack {
  int depth;  // 1 = L1 alone, 2 = + a 32kB L2, 3 = + a 128kB L3
  InclusionPolicy inclusion;  // every lower level's
};

/// The paper's 8kB/16B M=4 L1 over `stack`'s lower levels, on the ideal
/// clock or (`timed`) on a realistic latency point: the energy model's
/// wakeups at every level, an L2 hit of 2 and an L3 hit of 4 cycles, and
/// at each level a miss priced by what sits beyond it — the next level's
/// port (8 cycles from L1, 30 from L2) when that level serves fills,
/// memory (60) when nothing below does.  A victim level holds evictions
/// only, so victim stacks pay memory at L1.
SimConfig stack_config(const Stack& stack, bool timed) {
  SimConfig cfg = paper_config(8192, 16, 4);
  cfg.force_unit_pricing = true;  // one energy model for every stack
  if (timed) {
    cfg.latency = wake_latencies(cfg.energy_params);
    const bool lower_serves_fills =
        stack.depth > 1 && stack.inclusion != InclusionPolicy::kVictim;
    cfg.latency.miss_cycles = lower_serves_fills ? 8 : 60;
  }
  if (stack.depth >= 2) {
    cfg = with_lower_level(cfg, 32 * 1024, 4, 64, stack.inclusion);
    if (timed) {
      LatencyParams& l2 = cfg.lower_levels[0].topology.latency;
      l2 = wake_latencies(cfg.energy_params);
      l2.hit_cycles = 2;
      l2.miss_cycles = stack.depth == 2 ? 60 : 30;
    }
  }
  if (stack.depth >= 3) {
    cfg = with_lower_level(cfg, 128 * 1024, 8, 128, stack.inclusion);
    if (timed) {
      LatencyParams& l3 = cfg.lower_levels[1].topology.latency;
      l3 = wake_latencies(cfg.energy_params);
      l3.hit_cycles = 4;
      l3.miss_cycles = 60;
    }
  }
  return cfg;
}

class HierarchyStack : public ::testing::TestWithParam<Stack> {};

TEST_P(HierarchyStack, IdealClockNeverStallsAndTimedClockDoes) {
  for (const bool timed : {false, true}) {
    const SimConfig cfg = stack_config(GetParam(), timed);
    for (const char* workload : {"cjpeg", "dijkstra", "fft_1"}) {
      SyntheticTraceSource src(make_mediabench_workload(workload), 20'000);
      const SimResult r = Simulator(cfg).run(src);
      const std::string where =
          r.config_label + (timed ? " timed on " : " ideal on ") + workload;
      EXPECT_GT(r.energy.partitioned.total_pj(), 0.0) << where;
      if (timed) {
        EXPECT_GT(r.total_cycles, r.accesses) << where;
        EXPECT_GT(r.avg_access_latency(), 1.0) << where;
      } else {
        EXPECT_EQ(r.total_cycles, r.accesses) << where;
        EXPECT_EQ(r.stall_cycles, 0u) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NineStacks, HierarchyStack,
    ::testing::Values(Stack{1, InclusionPolicy::kNonInclusive},
                      Stack{2, InclusionPolicy::kNonInclusive},
                      Stack{2, InclusionPolicy::kInclusive},
                      Stack{2, InclusionPolicy::kExclusive},
                      Stack{2, InclusionPolicy::kVictim},
                      Stack{3, InclusionPolicy::kNonInclusive},
                      Stack{3, InclusionPolicy::kInclusive},
                      Stack{3, InclusionPolicy::kExclusive},
                      Stack{3, InclusionPolicy::kVictim}),
    [](const auto& info) {
      const Stack& s = info.param;
      return s.depth == 1 ? std::string("L1")
                          : "L" + std::to_string(s.depth) + "_" +
                                to_string(s.inclusion);
    });

}  // namespace
}  // namespace pcal
