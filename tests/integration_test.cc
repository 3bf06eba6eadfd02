// Cross-module integration: the compositions a downstream user would run
// that no single-module test exercises.
#include <gtest/gtest.h>

#include <sstream>

#include "bit_identical.h"
#include "core/experiment.h"
#include "trace/multiprogram.h"
#include "trace/trace_io.h"

namespace pcal {
namespace {

const AgingContext& aging() {
  static AgingContext* ctx = new AgingContext();
  return *ctx;
}

TEST(Integration, MultiprogramThroughSimulator) {
  MultiProgramConfig mp;
  mp.programs = {make_mediabench_workload("sha"),
                 make_mediabench_workload("cjpeg")};
  mp.quantum_accesses = 50'000;
  MultiProgramSource src(mp, 400'000);

  const SimResult st =
      Simulator(static_variant(paper_config(8192, 16, 4))).run(src,
                                                               &aging().lut());
  src.reset();
  const SimResult re =
      Simulator(paper_config(8192, 16, 4)).run(src, &aging().lut());
  // The mix still has imbalance for the static partition to lose on.
  EXPECT_GT(re.lifetime_years(), st.lifetime_years());
  EXPECT_EQ(st.accesses, 400'000u);
  EXPECT_EQ(re.accesses, 400'000u);
}

TEST(Integration, SetAssociativePartitionWorksEndToEnd) {
  SimConfig cfg = paper_config(8192, 16, 4);
  cfg.cache.ways = 2;
  const auto spec = make_mediabench_workload("dijkstra");
  const auto r = run_three_way(spec, cfg, aging(), 300'000);
  EXPECT_GT(r.reindexed.lifetime_years(),
            r.static_pm.lifetime_years() * 0.99);
  EXPECT_GT(r.reindexed.cache_stats.hit_rate(), 0.9);
  EXPECT_NEAR(r.monolithic.lifetime_years(), 2.93, 0.06);
}

TEST(Integration, AssociativityNeverHurtsHitRate) {
  // Same workload, same capacity: 2-way conflicts <= direct-mapped.
  const auto spec = make_mediabench_workload("fft_2");
  SimConfig dm = static_variant(paper_config(8192, 16, 4));
  SimConfig sa = dm;
  sa.cache.ways = 2;
  SyntheticTraceSource s1(spec, 300'000);
  SyntheticTraceSource s2(spec, 300'000);
  const SimResult r_dm = Simulator(dm).run(s1);
  const SimResult r_sa = Simulator(sa).run(s2);
  EXPECT_GE(r_sa.cache_stats.hit_rate() + 1e-3,
            r_dm.cache_stats.hit_rate());
}

TEST(Integration, TraceFileRoundTripThroughSimulator) {
  // Synthesize -> save -> load -> simulate must equal simulate-directly.
  auto spec = make_mediabench_workload("mad");
  SyntheticTraceSource src(spec, 100'000);
  Trace direct = Trace::materialize(src);
  std::stringstream ss;
  write_trace_binary(direct, ss);
  Trace loaded = read_trace_binary(ss, direct.name());

  const SimConfig cfg = paper_config(8192, 16, 4);
  const SimResult a = Simulator(cfg).run(direct, &aging().lut());
  const SimResult b = Simulator(cfg).run(loaded, &aging().lut());
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_DOUBLE_EQ(a.lifetime_years(), b.lifetime_years());
  EXPECT_DOUBLE_EQ(a.energy_saving(), b.energy_saving());
}

TEST(Integration, SerializedLutMatchesLiveContext) {
  std::stringstream ss;
  aging().lut().serialize(ss);
  const AgingLut restored = AgingLut::deserialize(ss);
  EXPECT_TRUE(BitIdentical(restored.table(), aging().lut().table()));
  EXPECT_EQ(restored.fingerprint(), aging().lut().fingerprint());
  for (double s : {0.0, 0.3, 0.7})
    EXPECT_EQ(double_bits(restored.lifetime_years(0.5, s)),
              double_bits(aging().lut().lifetime_years(0.5, s)));
}

TEST(Integration, SixteenBankConfigurationRuns) {
  // The paper's stated feasibility limit, exercised end to end.
  const auto spec = make_mediabench_workload("gsme");
  const SimResult r = run_workload(spec, paper_config(8192, 16, 16),
                                   aging(), 400'000);
  EXPECT_EQ(r.units.size(), 16u);
  EXPECT_GT(r.lifetime_years(), 2.93);
  EXPECT_EQ(r.reindex_updates_applied, 16u);  // >= M for uniformity
}

}  // namespace
}  // namespace pcal
