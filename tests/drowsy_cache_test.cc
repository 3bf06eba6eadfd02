// The drowsy hybrid policy: drowsy-then-gate power management.
//
// Two contracts matter: (1) a disabled drowsy window is the
// state-destructive (gated) policy bit for bit — the gate threshold is
// then the breakeven, so the split of sleep at it leaves no drowsy share;
// (2) with an active window, the drowsy/gated decomposition of every
// unit's sleep is exactly the interval arithmetic re-sliced at the gate
// threshold.
#include <gtest/gtest.h>

#include <vector>

#include "core/enum_strings.h"
#include "core/experiment.h"
#include "core/managed_cache.h"
#include "core/simulator.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

CacheTopology base_topology() {
  CacheTopology topo;
  topo.granularity = Granularity::kBank;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  return topo;
}

Trace make_trace(std::uint64_t accesses) {
  SyntheticTraceSource src(make_mediabench_workload("cjpeg"), accesses);
  return Trace::materialize(src);
}

// The identity the policy fold rests on: a zero-window drowsy run and a
// gated run report identical activity at every granularity, with no
// drowsy share and every sleep episode power-gated.  Periodic idle gaps
// let even the monolithic unit sleep.
TEST(DrowsyHybrid, ZeroWindowIsTheGatedPolicy) {
  const Trace trace = make_trace(30'000);
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kWay, Granularity::kLine}) {
    CacheTopology gated = base_topology();
    gated.granularity = g;
    gated.cache.ways = g == Granularity::kWay ? 2 : 1;
    CacheTopology drowsy0 = gated;
    drowsy0.policy = PowerPolicy::kDrowsyHybrid;
    drowsy0.drowsy_window_cycles = 0;
    ASSERT_EQ(drowsy0.gate_cycles(), drowsy0.breakeven_cycles);

    TimingModel clock;  // both caches', one cycle per access
    auto a = make_managed_cache(gated, &clock);
    auto b = make_managed_cache(drowsy0, &clock);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const bool w = trace[i].kind == AccessKind::kWrite;
      a->access(trace[i].address, w);
      b->access(trace[i].address, w);
      clock.on_access(0);
      if (i % 1'000 == 999) clock.on_batch(0, 100);
      if (i % 7'000 == 6'999) {
        a->update_indexing();
        b->update_indexing();
      }
    }
    a->finish();
    b->finish();
    std::uint64_t episodes = 0;
    for (std::uint64_t u = 0; u < a->num_units(); ++u) {
      const UnitActivity x = a->unit_activity(u);
      const UnitActivity y = b->unit_activity(u);
      EXPECT_EQ(x.accesses, y.accesses);
      EXPECT_EQ(x.sleep_cycles, y.sleep_cycles);
      EXPECT_EQ(x.sleep_episodes, y.sleep_episodes);
      EXPECT_DOUBLE_EQ(x.useful_idleness_count, y.useful_idleness_count);
      EXPECT_EQ(x.drowsy_cycles, y.drowsy_cycles);
      EXPECT_EQ(x.gated_episodes, y.gated_episodes);
      EXPECT_EQ(y.drowsy_cycles, 0u) << to_string(g) << " unit " << u;
      EXPECT_EQ(y.gated_episodes, y.sleep_episodes)
          << to_string(g) << " unit " << u;
      episodes += y.sleep_episodes;
    }
    EXPECT_GT(episodes, 0u) << to_string(g);
  }
}

// The window is transparent to everything but the drowsy split: same
// outcome stream, stats, residencies as the gated policy.
TEST(DrowsyHybrid, WindowIsTransparentToAccessStream) {
  CacheTopology gated = base_topology();
  CacheTopology drowsy = gated;
  drowsy.policy = PowerPolicy::kDrowsyHybrid;
  drowsy.drowsy_window_cycles = 100;

  const Trace trace = make_trace(30'000);
  auto a = make_managed_cache(gated);
  auto b = make_managed_cache(drowsy);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool w = trace[i].kind == AccessKind::kWrite;
    const AccessOutcome oa = a->access(trace[i].address, w);
    const AccessOutcome ob = b->access(trace[i].address, w);
    ASSERT_EQ(oa.hit, ob.hit) << "access " << i;
    ASSERT_EQ(oa.physical_unit, ob.physical_unit) << "access " << i;
    ASSERT_EQ(oa.woke_unit, ob.woke_unit) << "access " << i;
    if (i % 7'000 == 6'999) {
      ASSERT_EQ(a->update_indexing(), b->update_indexing());
    }
  }
  a->finish();
  b->finish();
  EXPECT_EQ(a->stats().hits, b->stats().hits);
  for (std::uint64_t u = 0; u < a->num_units(); ++u)
    EXPECT_DOUBLE_EQ(a->unit_residency(u), b->unit_residency(u));
}

// The drowsy/gated decomposition must match interval arithmetic done
// here, from the outcome stream alone: each access closes its serving
// unit's idle interval (the cycles since the unit's last access), and
// finish() closes every unit's trailing one at the cycle it ran to.  An
// interval of length len sleeps (len - d) cycles if len > d, of which
// (len - g) are gated if len > g, so drowsy = sleep(d) - sleep(g).
TEST(DrowsyHybrid, DecompositionMatchesIntervalArithmetic) {
  CacheTopology topo = base_topology();
  topo.policy = PowerPolicy::kDrowsyHybrid;
  topo.drowsy_window_cycles = 50;
  const std::uint64_t d = topo.breakeven_cycles;
  const std::uint64_t g = topo.gate_cycles();
  ASSERT_EQ(g, d + topo.drowsy_window_cycles);

  struct Sums {
    std::uint64_t next_free = 0;  // one past the unit's last access
    std::uint64_t intervals = 0;  // nonzero idle intervals
    std::uint64_t above_d = 0, sleep_d = 0;
    std::uint64_t above_g = 0, sleep_g = 0;
  };
  auto cache = make_managed_cache(topo);
  std::vector<Sums> ref(cache->num_units());
  const auto close = [&](Sums& s, std::uint64_t cycle) {
    const std::uint64_t len = cycle - s.next_free;
    if (len > 0) ++s.intervals;
    if (len > d) {
      ++s.above_d;
      s.sleep_d += len - d;
    }
    if (len > g) {
      ++s.above_g;
      s.sleep_g += len - g;
    }
  };

  const Trace trace = make_trace(40'000);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t now = cache->cycles();
    const AccessOutcome out =
        cache->access(trace[i].address, trace[i].kind == AccessKind::kWrite);
    ASSERT_LT(out.physical_unit, ref.size());
    Sums& s = ref[out.physical_unit];
    close(s, now);
    s.next_free = now + 1;
  }
  cache->finish();
  for (Sums& s : ref) close(s, cache->cycles());

  bool saw_drowsy = false;
  for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
    const UnitActivity a = cache->unit_activity(u);
    const Sums& s = ref[u];
    EXPECT_EQ(a.sleep_cycles, s.sleep_d) << "unit " << u;
    EXPECT_EQ(a.sleep_cycles - a.drowsy_cycles, s.sleep_g) << "unit " << u;
    EXPECT_EQ(a.sleep_episodes, s.above_d) << "unit " << u;
    EXPECT_EQ(a.gated_episodes, s.above_g) << "unit " << u;
    EXPECT_EQ(a.useful_idleness_count,
              s.intervals == 0 ? 0.0
                               : static_cast<double>(s.above_d) /
                                     static_cast<double>(s.intervals))
        << "unit " << u;
    EXPECT_LE(a.gated_episodes, a.sleep_episodes);
    EXPECT_LE(a.drowsy_cycles, a.sleep_cycles);
    if (a.drowsy_cycles > 0) saw_drowsy = true;
    // Gated residency is the deep slice of the total sleep residency.
    const double gated_residency = static_cast<double>(s.sleep_g) /
                                   static_cast<double>(cache->cycles());
    EXPECT_LE(gated_residency, cache->unit_residency(u) + 1e-12);
  }
  EXPECT_TRUE(saw_drowsy);
}

// Simulator-level degeneracy: window 0 == the gated run, energy included.
TEST(DrowsyHybrid, SimulatorZeroWindowBitIdentical) {
  const SimConfig gated = paper_config(8192, 16, 4);
  const SimConfig drowsy0 = drowsy_hybrid_variant(gated, 0);

  SyntheticTraceSource sa(make_mediabench_workload("sha"), 120'000);
  SyntheticTraceSource sb(make_mediabench_workload("sha"), 120'000);
  const SimResult a = Simulator(gated).run(sa);
  const SimResult b = Simulator(drowsy0).run(sb);

  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles);
    EXPECT_DOUBLE_EQ(a.units[u].sleep_residency,
                     b.units[u].sleep_residency);
    EXPECT_EQ(b.units[u].drowsy_cycles, 0u);
  }
  EXPECT_DOUBLE_EQ(a.energy.partitioned.total_pj(),
                   b.energy.partitioned.total_pj());
  EXPECT_DOUBLE_EQ(a.energy.baseline_pj, b.energy.baseline_pj);
}

// With an active window the run reports a drowsy share, pays drowsy
// leakage, and power-gates less often than the pure gated run.
TEST(DrowsyHybrid, ActiveWindowShiftsSleepIntoDrowsy) {
  const SimConfig gated = paper_config(8192, 16, 4);
  const SimConfig drowsy = drowsy_hybrid_variant(gated, 200);

  SyntheticTraceSource sa(make_mediabench_workload("sha"), 150'000);
  SyntheticTraceSource sb(make_mediabench_workload("sha"), 150'000);
  const SimResult a = Simulator(gated).run(sa);
  const SimResult b = Simulator(drowsy).run(sb);

  // Same sleep totals (the drowsy threshold is the same breakeven) ...
  EXPECT_DOUBLE_EQ(a.avg_residency(), b.avg_residency());
  // ... but part of it is drowsy now, and no episode can deep-gate
  // before it has dwelt through the drowsy window.
  EXPECT_GT(b.drowsy_residency(), 0.0);
  std::uint64_t gated_episodes = 0, episodes = 0;
  for (const auto& u : b.units) {
    gated_episodes += u.gated_episodes;
    episodes += u.sleep_episodes;
  }
  EXPECT_LE(gated_episodes, episodes);
  EXPECT_GT(episodes, 0u);
  // Energy: the hybrid pays drowsy leakage the gated run does not.
  EXPECT_GT(b.energy.partitioned.leakage_drowsy_pj, 0.0);
  EXPECT_GT(b.energy.partitioned.total_pj(), 0.0);
  EXPECT_GT(b.energy.baseline_pj, 0.0);
}

// The hybrid composes with line granularity (the [7] drowsy bound).
TEST(DrowsyHybrid, ComposesWithLineGranularity) {
  SimConfig line = line_grain_variant(paper_config(8192, 16, 4));
  const SimConfig drowsy = drowsy_hybrid_variant(line, 64);
  SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 80'000);
  const SimResult r = Simulator(drowsy).run(src);
  EXPECT_EQ(r.granularity, Granularity::kLine);
  EXPECT_EQ(r.policy, PowerPolicy::kDrowsyHybrid);
  EXPECT_GT(r.energy.partitioned.total_pj(), 0.0);
  EXPECT_GT(r.drowsy_residency(), 0.0);
}

TEST(PowerPolicyStrings, RoundTrip) {
  for (PowerPolicy p :
       {PowerPolicy::kGated, PowerPolicy::kDrowsyHybrid})
    EXPECT_EQ(power_policy_from_string(to_string(p)), p);
  EXPECT_THROW(power_policy_from_string("hybrid"), ConfigError);
}

}  // namespace
}  // namespace pcal
