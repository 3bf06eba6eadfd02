#include "core/simulator.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

const AgingContext& aging() {
  static AgingContext* ctx = new AgingContext();
  return *ctx;
}

SimConfig base_config() { return paper_config(8192, 16, 4); }

TEST(Simulator, MonolithicUniformWorkloadLivesNominalLifetime) {
  // A monolithic cache under constant traffic has no useful idleness and
  // ages like the standard cell: 2.93 years.
  auto spec = make_uniform_workload(32 * 1024);
  SyntheticTraceSource src(spec, 300'000);
  const SimResult r =
      Simulator(monolithic_variant(base_config())).run(src, &aging().lut());
  ASSERT_EQ(r.units.size(), 1u);
  EXPECT_LT(r.units[0].sleep_residency, 0.01);
  EXPECT_NEAR(r.lifetime_years(), 2.93, 0.05);
}

TEST(Simulator, ReindexingEqualizesHotspotResidency) {
  auto spec = make_hotspot_workload(64 * 1024, 1.0, 0.05);
  SyntheticTraceSource src(spec, 500'000);
  const SimResult reidx = Simulator(base_config()).run(src, &aging().lut());
  const SimResult stat =
      Simulator(static_variant(base_config())).run(src, &aging().lut());

  // Static: the hot bank never sleeps, capping lifetime at ~2.93y.
  EXPECT_LT(stat.min_residency(), 0.02);
  EXPECT_NEAR(stat.lifetime_years(), 2.93, 0.1);
  // Probing: every physical bank gets its share of the hot set.
  EXPECT_GT(reidx.min_residency(), stat.min_residency() + 0.3);
  EXPECT_GT(reidx.lifetime_years(), 1.4 * stat.lifetime_years());
  ASSERT_TRUE(reidx.lifetime.has_value());
  EXPECT_LT(reidx.lifetime->imbalance(), 1.25);
}

TEST(Simulator, UpdateCountHonored) {
  auto spec = make_uniform_workload(32 * 1024);
  SyntheticTraceSource src(spec, 100'000);
  SimConfig cfg = base_config();
  cfg.reindex_updates = 7;
  const SimResult r = Simulator(cfg).run(src);
  EXPECT_EQ(r.reindex_updates_applied, 7u);
  EXPECT_EQ(r.cache_stats.flushes, 7u);
}

TEST(Simulator, StaticConfigNeverFlushes) {
  auto spec = make_uniform_workload(32 * 1024);
  SyntheticTraceSource src(spec, 100'000);
  const SimResult r = Simulator(static_variant(base_config())).run(src);
  EXPECT_EQ(r.reindex_updates_applied, 0u);
  EXPECT_EQ(r.cache_stats.flushes, 0u);
}

TEST(Simulator, BreakevenOverride) {
  SimConfig cfg = base_config();
  cfg.breakeven_override = 5;
  EXPECT_EQ(Simulator(cfg).breakeven_cycles(), 5u);
  cfg.breakeven_override = 0;
  const std::uint64_t be = Simulator(cfg).breakeven_cycles();
  EXPECT_GE(be, 8u);
  EXPECT_LE(be, 64u);
}

TEST(Simulator, ResultBookkeeping) {
  auto spec = make_uniform_workload(32 * 1024);
  SyntheticTraceSource src(spec, 50'000);
  const SimResult r = Simulator(base_config()).run(src, &aging().lut());
  EXPECT_EQ(r.workload, "uniform");
  EXPECT_EQ(r.config_label, "8kB/16B/DM M=4 probing");
  EXPECT_EQ(r.accesses, 50'000u);
  ASSERT_EQ(r.units.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& b : r.units) total += b.accesses;
  EXPECT_EQ(total, 50'000u);
  EXPECT_GT(r.energy.baseline_pj, 0.0);
  EXPECT_GT(r.energy.partitioned.total_pj(), 0.0);
  EXPECT_GT(r.lifetime_years(), 0.0);
}

TEST(Simulator, RunWithoutLutSkipsLifetime) {
  auto spec = make_uniform_workload(32 * 1024);
  SyntheticTraceSource src(spec, 10'000);
  const SimResult r = Simulator(base_config()).run(src);
  EXPECT_FALSE(r.lifetime.has_value());
  EXPECT_EQ(r.lifetime_years(), 0.0);
}

TEST(Simulator, VariantHelpers) {
  const SimConfig mono = monolithic_variant(base_config());
  EXPECT_EQ(mono.partition.num_banks, 1u);
  EXPECT_EQ(mono.indexing, IndexingKind::kStatic);
  const SimConfig st = static_variant(base_config());
  EXPECT_EQ(st.partition.num_banks, 4u);
  EXPECT_EQ(st.indexing, IndexingKind::kStatic);
}

TEST(Simulator, RejectsInvalidConfig) {
  SimConfig cfg = base_config();
  cfg.partition.num_banks = 3;
  EXPECT_THROW(Simulator{cfg}, ConfigError);
}

TEST(Simulator, LineGranularityRunsThroughSameEngine) {
  auto spec = make_hotspot_workload(64 * 1024, 1.0, 0.05);
  SyntheticTraceSource src(spec, 200'000);
  SimConfig cfg = line_grain_variant(base_config());
  cfg.reindex_updates = 64;
  const SimResult r = Simulator(cfg).run(src, &aging().lut());

  EXPECT_EQ(r.granularity, Granularity::kLine);
  ASSERT_EQ(r.units.size(), cfg.cache.num_sets());
  EXPECT_EQ(r.reindex_updates_applied, 64u);
  std::uint64_t total = 0;
  for (const auto& u : r.units) total += u.accesses;
  EXPECT_EQ(total, 200'000u);
  // Line grain harvests strictly more idleness than banks on the same
  // trace.  Its energy is priced by the per-unit model (pre-PR-3 it was
  // deliberately zero) — nonzero, but the honest sleep-network overhead
  // means its saving trails the banked scheme's.
  const SimResult banked = Simulator(base_config()).run(src, &aging().lut());
  EXPECT_GT(r.avg_residency(), banked.avg_residency());
  EXPECT_GT(r.lifetime_years(), banked.lifetime_years());
  EXPECT_GT(r.energy.baseline_pj, 0.0);
  EXPECT_GT(r.energy.partitioned.total_pj(), 0.0);
  EXPECT_LT(r.energy_saving(), banked.energy_saving());
}

TEST(Simulator, MonolithicGranularityMatchesBankedM1) {
  // The monolithic unit map must reproduce what the banked engine
  // produced for M = 1 (how the monolithic reference used to be modeled).
  auto spec = make_mediabench_workload("cjpeg");
  SyntheticTraceSource src(spec, 150'000);
  const SimResult mono =
      Simulator(monolithic_variant(base_config())).run(src, &aging().lut());
  SimConfig banked1 = base_config();
  banked1.partition.num_banks = 1;
  banked1.indexing = IndexingKind::kStatic;
  banked1.reindex_updates = 0;
  const SimResult ref = Simulator(banked1).run(src, &aging().lut());

  EXPECT_EQ(mono.granularity, Granularity::kMonolithic);
  ASSERT_EQ(mono.units.size(), 1u);
  EXPECT_EQ(mono.cache_stats.hits, ref.cache_stats.hits);
  EXPECT_EQ(mono.cache_stats.writebacks, ref.cache_stats.writebacks);
  EXPECT_EQ(mono.units[0].sleep_cycles, ref.units[0].sleep_cycles);
  EXPECT_DOUBLE_EQ(mono.units[0].sleep_residency,
                   ref.units[0].sleep_residency);
  EXPECT_DOUBLE_EQ(mono.lifetime_years(), ref.lifetime_years());
  EXPECT_DOUBLE_EQ(mono.energy.partitioned.total_pj(),
                   ref.energy.partitioned.total_pj());
}

TEST(Simulator, ObserverStreamsIntervalSnapshots) {
  auto spec = make_uniform_workload(32 * 1024);
  SyntheticTraceSource src(spec, 100'000);
  SimConfig cfg = base_config();
  cfg.reindex_updates = 7;

  std::uint64_t boundaries = 0, updates_seen = 0, finals = 0;
  std::uint64_t last_cycles = 0, census_units = 0;
  const SimResult r = Simulator(cfg).run(
      src, nullptr, [&](const IntervalSnapshot& snap) {
        ASSERT_NE(snap.stats, nullptr);
        ASSERT_NE(snap.groups, nullptr);
        ASSERT_NE(snap.unit_states, nullptr);
        // One single-stream group tiles every unit and carries the
        // snapshot's own tag-store statistics.
        ASSERT_EQ(snap.groups->size(), 1u);
        const UnitGroupStates& g = snap.groups->front();
        EXPECT_EQ(g.core, -1);
        EXPECT_EQ(g.units, snap.unit_states->size());
        EXPECT_EQ(g.awake + g.drowsy + g.gated, g.units);
        EXPECT_EQ(g.stats.accesses, snap.stats->accesses);
        census_units = g.units;
        EXPECT_GE(snap.cycles, last_cycles);
        last_cycles = snap.cycles;
        if (snap.final_snapshot) {
          ++finals;
          EXPECT_EQ(snap.cycles, 100'000u);
          EXPECT_EQ(g.stats.accesses, 100'000u);
        } else {
          ++boundaries;
          if (snap.fired_update) ++updates_seen;
          EXPECT_EQ(snap.stats->accesses, snap.cycles);
        }
      });
  EXPECT_EQ(updates_seen, 7u);
  EXPECT_EQ(r.reindex_updates_applied, 7u);
  EXPECT_GE(boundaries, 7u);
  EXPECT_EQ(finals, 1u);
  EXPECT_EQ(census_units, r.units.size());
}

TEST(Simulator, ObserverOnStaticRunUsesDefaultCadence) {
  auto spec = make_uniform_workload(32 * 1024);
  SyntheticTraceSource src(spec, 80'000);
  std::uint64_t boundaries = 0, finals = 0;
  Simulator(static_variant(base_config()))
      .run(src, nullptr, [&](const IntervalSnapshot& snap) {
        if (snap.final_snapshot)
          ++finals;
        else {
          ++boundaries;
          EXPECT_FALSE(snap.fired_update);
        }
      });
  EXPECT_EQ(boundaries, 16u);
  EXPECT_EQ(finals, 1u);
}

TEST(Simulator, BatchedLoopMatchesUnbatchedTraceReplay) {
  // Driving a materialized Trace (batched memcpy path) must give the same
  // result as the generator (default batch-of-one path wrapped in
  // next_batch).
  auto spec = make_hotspot_workload(64 * 1024);
  SyntheticTraceSource src(spec, 120'000);
  Trace trace = Trace::materialize(src);
  const SimResult a = Simulator(base_config()).run(src, &aging().lut());
  const SimResult b = Simulator(base_config()).run(trace, &aging().lut());
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.reindex_updates_applied, b.reindex_updates_applied);
  EXPECT_DOUBLE_EQ(a.lifetime_years(), b.lifetime_years());
  EXPECT_DOUBLE_EQ(a.energy.partitioned.total_pj(),
                   b.energy.partitioned.total_pj());
}

}  // namespace
}  // namespace pcal
