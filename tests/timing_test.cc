// The latency-aware timing core (core/timing.h) and its integration
// with the backends and the Simulator driver.
//
// Contracts: all-zero LatencyParams reproduce the idealized clock bit
// for bit (total == accesses, no stalls); event stalls compose hit/miss
// cost with the wakeup depth; the drowsy hybrid wakes cheaply inside its
// window and pays the full cost past it; the driver's stall accounting
// equals a manual replay of the same backend; and stalls stretch the
// clock every unit's leakage is priced against.
#include "core/timing.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/managed_cache.h"
#include "core/simulator.h"
#include "route_chain.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

TEST(LatencyParams, EventStallComposesHitMissAndWake) {
  LatencyParams lat;
  lat.hit_cycles = 1;
  lat.miss_cycles = 20;
  lat.drowsy_wake_cycles = 2;
  lat.gated_wake_cycles = 5;
  EXPECT_EQ(lat.event_stall(true, WakeDepth::kAwake), 1u);
  EXPECT_EQ(lat.event_stall(false, WakeDepth::kAwake), 20u);
  EXPECT_EQ(lat.event_stall(true, WakeDepth::kDrowsy), 3u);
  EXPECT_EQ(lat.event_stall(true, WakeDepth::kGated), 6u);
  EXPECT_EQ(lat.event_stall(false, WakeDepth::kGated), 25u);
  EXPECT_FALSE(lat.zero());
  EXPECT_EQ(lat.describe(), "h1/m20/w2:5");

  const LatencyParams zero;
  EXPECT_TRUE(zero.zero());
  EXPECT_EQ(zero.event_stall(false, WakeDepth::kGated), 0u);
  EXPECT_EQ(zero.describe(), "");
}

TEST(LatencyParams, ValidateCapsEveryEventCost) {
  LatencyParams lat;
  lat.hit_cycles = lat.miss_cycles = lat.drowsy_wake_cycles =
      lat.gated_wake_cycles = LatencyParams::kMaxEventCycles;
  EXPECT_NO_THROW(lat.validate());
  for (std::uint64_t LatencyParams::*field :
       {&LatencyParams::hit_cycles, &LatencyParams::miss_cycles,
        &LatencyParams::drowsy_wake_cycles,
        &LatencyParams::gated_wake_cycles}) {
    LatencyParams bad = lat;
    bad.*field = LatencyParams::kMaxEventCycles + 1;
    EXPECT_THROW(bad.validate(), ConfigError);
  }
  // Configs built in code are checked at every level.
  SimConfig cfg;
  cfg.lower_levels.push_back(cfg.make_level(64 * 1024));
  EXPECT_NO_THROW(cfg.validate());
  cfg.lower_levels[0].topology.latency.miss_cycles = UINT64_MAX;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.lower_levels[0].topology.latency.miss_cycles = 0;
  cfg.latency.gated_wake_cycles = LatencyParams::kMaxEventCycles + 1;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(LatencyParams, ClassifyWake) {
  EXPECT_EQ(classify_wake(false, 100, 8), WakeDepth::kAwake);
  EXPECT_EQ(classify_wake(true, 5, 8), WakeDepth::kDrowsy);
  EXPECT_EQ(classify_wake(true, 8, 8), WakeDepth::kGated);
  EXPECT_EQ(classify_wake(true, 50, 8), WakeDepth::kGated);
}

TEST(TimingModel, AccumulatesAccessesAndStalls) {
  TimingModel timing;
  EXPECT_EQ(timing.total_cycles(), 0u);
  EXPECT_DOUBLE_EQ(timing.avg_access_latency(), 0.0);
  timing.on_access(0);
  timing.on_access(7);
  timing.on_access(3);
  EXPECT_EQ(timing.accesses(), 3u);
  EXPECT_EQ(timing.stall_cycles(), 10u);
  EXPECT_EQ(timing.total_cycles(), 13u);
  EXPECT_DOUBLE_EQ(timing.avg_access_latency(), 13.0 / 3.0);
}

TEST(Timing, ZeroLatencyLabelIsUnchanged) {
  // The degeneracy extends to config labels: an untimed topology
  // describes itself exactly as before the timing core existed.
  CacheTopology topo;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.partition.num_banks = 4;
  const std::string untimed = topo.describe();
  EXPECT_EQ(untimed.find("lat="), std::string::npos);
  topo.latency.miss_cycles = 8;
  EXPECT_NE(topo.describe().find("lat=h0/m8"), std::string::npos);
}

TEST(Timing, DrowsyHybridWakesCheaplyInsideTheWindow) {
  // Monolithic hybrid: breakeven 4, window 4 (gate at 8).  A gap inside
  // [4, 8) wakes from drowsy; a gap >= 8 wakes from the gated state.
  CacheTopology topo;
  topo.granularity = Granularity::kMonolithic;
  topo.cache.size_bytes = 1024;
  topo.cache.line_bytes = 16;
  topo.indexing = IndexingKind::kStatic;
  topo.breakeven_cycles = 4;
  topo.policy = PowerPolicy::kDrowsyHybrid;
  topo.drowsy_window_cycles = 4;
  topo.latency.drowsy_wake_cycles = 1;
  topo.latency.gated_wake_cycles = 3;
  TimingModel clock;
  auto cache = make_managed_cache(topo, &clock);

  AccessOutcome out = cache->access(0, false);  // cold miss, awake
  EXPECT_EQ(out.wake, WakeDepth::kAwake);
  EXPECT_EQ(out.stall_cycles, 0u);

  clock.on_batch(1, 5);  // its cycle, then gap 5: drowsy, not yet gated
  out = cache->access(0, false);
  EXPECT_TRUE(out.woke_unit);
  EXPECT_EQ(out.wake, WakeDepth::kDrowsy);
  EXPECT_EQ(out.stall_cycles, 1u);

  clock.on_batch(1, 9);  // its cycle, then gap 9 >= 8: power-gated
  out = cache->access(0, false);
  EXPECT_TRUE(out.woke_unit);
  EXPECT_EQ(out.wake, WakeDepth::kGated);
  EXPECT_EQ(out.stall_cycles, 3u);

  clock.on_access(0);
  out = cache->access(0, false);  // back-to-back: no wake
  EXPECT_EQ(out.wake, WakeDepth::kAwake);
  EXPECT_EQ(out.stall_cycles, 0u);
}

TEST(Timing, PureGatedBackendReportsEveryWakeAsGated) {
  CacheTopology topo;
  topo.granularity = Granularity::kMonolithic;
  topo.cache.size_bytes = 1024;
  topo.cache.line_bytes = 16;
  topo.breakeven_cycles = 4;
  topo.latency.gated_wake_cycles = 3;
  TimingModel clock;
  auto cache = make_managed_cache(topo, &clock);
  cache->access(0, false);
  clock.on_batch(1, 5);  // its cycle, then gap 5
  const AccessOutcome out = cache->access(0, false);
  EXPECT_TRUE(out.woke_unit);
  EXPECT_EQ(out.wake, WakeDepth::kGated);
  EXPECT_EQ(out.stall_cycles, 3u);
}

TEST(Timing, SimulatorStallAccountingMatchesManualReplay) {
  // The driver's TimingModel must agree with a by-hand replay of the
  // same backend over the same trace (access, then 1 + stall on the
  // replay's clock).
  SimConfig cfg = static_variant(paper_config(8192, 16, 4));
  cfg.latency.hit_cycles = 1;
  cfg.latency.miss_cycles = 12;
  cfg.latency.gated_wake_cycles = 3;

  SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 50'000);
  const Trace trace = Trace::materialize(src);

  const Simulator sim(cfg);
  TimingModel clock;
  auto manual =
      make_managed_cache(cfg.topology(sim.breakeven_cycles()), &clock);
  std::uint64_t manual_stalls = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const AccessOutcome out = manual->access(
        trace[i].address, trace[i].kind == AccessKind::kWrite);
    clock.on_access(out.stall_cycles);
    manual_stalls += out.stall_cycles;
  }
  manual->finish();

  SyntheticTraceSource src2(make_mediabench_workload("cjpeg"), 50'000);
  const SimResult r = Simulator(cfg).run(src2);

  EXPECT_EQ(r.accesses, trace.size());
  EXPECT_EQ(r.stall_cycles, manual_stalls);
  EXPECT_GT(r.stall_cycles, 0u);
  EXPECT_EQ(r.total_cycles, r.accesses + r.stall_cycles);
  EXPECT_EQ(r.total_cycles, manual->cycles());
  EXPECT_GT(r.avg_access_latency(), 1.0);
  ASSERT_EQ(r.units.size(), manual->num_units());
  for (std::uint64_t u = 0; u < manual->num_units(); ++u)
    EXPECT_DOUBLE_EQ(r.units[u].sleep_residency,
                     manual->unit_residency(u));
}

TEST(Timing, StallsAreIdleTimeAndStretchTheLeakageClock) {
  // Stall cycles are idle time for every unit, so a timed run harvests
  // more sleep residency and pays more leakage than the same run on the
  // ideal clock.
  SimConfig ideal = paper_config(8192, 16, 4);
  ideal.force_unit_pricing = true;
  SimConfig timed = ideal;
  timed.latency.miss_cycles = 40;
  timed.latency.gated_wake_cycles = 3;

  SyntheticTraceSource sa(make_mediabench_workload("dijkstra"), 80'000);
  SyntheticTraceSource sb(make_mediabench_workload("dijkstra"), 80'000);
  const SimResult a = Simulator(ideal).run(sa);
  const SimResult b = Simulator(timed).run(sb);

  EXPECT_EQ(a.total_cycles, a.accesses);
  EXPECT_GT(b.total_cycles, b.accesses);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_GT(b.avg_residency(), a.avg_residency());
  // More wall-clock, more leakage: on both sides of the comparison
  // (managed and baseline), so the run costs more in absolute terms.
  EXPECT_GT(b.energy.partitioned.total_pj(),
            a.energy.partitioned.total_pj());
  EXPECT_GT(b.energy.baseline_pj, a.energy.baseline_pj);
}

TEST(Timing, HierarchyStallsSumTheReferencedLevels) {
  // L1 hit: h1.  L1 miss -> L2 hit: m8 + h2.  L1 miss -> L2 miss:
  // m8 + m30.  The composed outcome must report exactly those sums.
  SimConfig cfg = static_variant(paper_config(4096, 16, 4));
  cfg.latency.miss_cycles = 8;
  cfg = two_level_variant(cfg, 32 * 1024, 4, 64);
  cfg.lower_levels[0].topology.indexing = IndexingKind::kStatic;
  cfg.lower_levels[0].topology.latency.hit_cycles = 2;
  cfg.lower_levels[0].topology.latency.miss_cycles = 30;

  RouteChain chain({{cfg.topology(/*breakeven=*/32),
                     InclusionPolicy::kNonInclusive},
                    cfg.lower_levels[0]});

  SyntheticTraceSource src(make_mediabench_workload("dijkstra"), 40'000);
  const Trace trace = Trace::materialize(src);
  std::uint64_t l1_hits = 0, l2_hits = 0, l2_misses = 0;
  std::uint64_t stalls = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const AccessOutcome out = chain.access(
        trace[i].address, trace[i].kind == AccessKind::kWrite);
    stalls += out.stall_cycles;
    if (out.hit)
      ++l1_hits;
  }
  chain.finish();
  l2_hits = chain.stats(1).hits;
  l2_misses = chain.stats(1).misses;

  // No wakeup latencies configured, so the decomposition is exact.
  EXPECT_EQ(stalls, 8 * (l2_hits + l2_misses) + 2 * l2_hits +
                        30 * l2_misses);
  EXPECT_GT(l2_hits, 0u);
  EXPECT_GT(l2_misses, 0u);
  EXPECT_EQ(l1_hits + l2_hits + l2_misses, trace.size());
}

}  // namespace
}  // namespace pcal
