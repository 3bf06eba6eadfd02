// Randomized invariant checks: for arbitrary (seeded) workload specs and
// architecture configurations, the simulator's outputs must satisfy the
// model's structural laws.  These catch the bugs example-based tests
// cannot: accounting that goes negative, residencies above 1, lifetimes
// below the never-sleeping floor, banks losing accesses.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "util/rng.h"

namespace pcal {
namespace {

const AgingContext& aging() {
  static AgingContext* ctx = new AgingContext();
  return *ctx;
}

WorkloadSpec random_spec(Xoshiro256& rng) {
  WorkloadSpec spec;
  spec.name = "fuzz";
  spec.footprint_bytes = 8192u << rng.next_below(4);  // 8k .. 64k
  spec.window_len = 200 + rng.next_below(3000);
  spec.write_fraction = rng.next_double() * 0.6;
  spec.seed = rng.next();
  const std::uint64_t streams = 1 + rng.next_below(6);
  for (std::uint64_t i = 0; i < streams; ++i) {
    StreamSpec s;
    const std::uint64_t granule = spec.footprint_bytes / 16;
    const std::uint64_t begin = rng.next_below(15) * granule;
    s.range_begin = begin;
    s.range_end = begin + granule * (1 + rng.next_below(3));
    if (s.range_end > spec.footprint_bytes)
      s.range_end = spec.footprint_bytes;
    s.duty = 0.02 + rng.next_double() * 0.98;
    s.weight = 0.2 + rng.next_double() * 2.0;
    s.pattern = static_cast<StreamPattern>(rng.next_below(4));
    s.schedule = static_cast<StreamSchedule>(rng.next_below(3));
    s.burst_len = 1 + rng.next_below(20);
    s.phase = rng.next_below(100);
    s.stride_bytes = 16u << rng.next_below(4);
    s.walk_bytes = 4u << rng.next_below(3);
    s.zipf_s = rng.next_double() * 1.5;
    spec.streams.push_back(s);
  }
  return spec;
}

SimConfig random_config(Xoshiro256& rng) {
  SimConfig cfg;
  cfg.cache.size_bytes = 4096u << rng.next_below(4);  // 4k .. 32k
  cfg.cache.line_bytes = 16u << rng.next_below(2);
  cfg.cache.ways = 1u << rng.next_below(2);
  cfg.partition.num_banks = 1u << rng.next_below(5);  // 1 .. 16
  cfg.indexing = static_cast<IndexingKind>(rng.next_below(3));
  cfg.reindex_updates = rng.next_below(40);
  return cfg;
}

class FuzzInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzInvariants, SimulatorOutputsAreStructurallySound) {
  Xoshiro256 rng(GetParam());
  const WorkloadSpec spec = random_spec(rng);
  const SimConfig cfg = random_config(rng);
  constexpr std::uint64_t kAccesses = 120'000;

  SyntheticTraceSource src(spec, kAccesses);
  const SimResult r = Simulator(cfg).run(src, &aging().lut());

  // Conservation: every access lands in exactly one bank, one cycle each.
  EXPECT_EQ(r.accesses, kAccesses);
  std::uint64_t bank_accesses = 0;
  for (const auto& b : r.units) bank_accesses += b.accesses;
  EXPECT_EQ(bank_accesses, kAccesses);
  EXPECT_EQ(r.cache_stats.accesses, kAccesses);
  EXPECT_EQ(r.cache_stats.hits + r.cache_stats.misses, kAccesses);

  // Residencies and idleness metrics are probabilities.
  for (const auto& b : r.units) {
    EXPECT_GE(b.sleep_residency, 0.0);
    EXPECT_LE(b.sleep_residency, 1.0);
    EXPECT_GE(b.useful_idleness_count, 0.0);
    EXPECT_LE(b.useful_idleness_count, 1.0);
    EXPECT_LE(b.sleep_cycles, kAccesses);
  }
  EXPECT_LE(r.min_residency(), r.avg_residency() + 1e-12);

  // Lifetime floor: sleeping can only help; the never-sleeping nominal
  // cell is the worst case (p0 = 0.5 fixed in this model).
  ASSERT_TRUE(r.lifetime.has_value());
  EXPECT_GE(r.lifetime_years(), 2.93 * 0.999);
  for (const auto& b : r.lifetime->banks)
    EXPECT_GE(b.lifetime_years, r.lifetime_years() - 1e-9);

  // Energy: all components non-negative; partitioned never beats an
  // impossible bound (zero) and the saving is < 1.
  const EnergyBreakdown& e = r.energy.partitioned;
  EXPECT_GE(e.dynamic_pj, 0.0);
  EXPECT_GE(e.leakage_active_pj, 0.0);
  EXPECT_GE(e.leakage_retention_pj, 0.0);
  EXPECT_GE(e.transition_pj, 0.0);
  EXPECT_GT(r.energy.baseline_pj, 0.0);
  EXPECT_LT(r.energy_saving(), 1.0);

  // Update bookkeeping: applied updates never exceed the request, and
  // static indexing never flushes.
  EXPECT_LE(r.reindex_updates_applied, cfg.reindex_updates);
  if (cfg.indexing == IndexingKind::kStatic) {
    EXPECT_EQ(r.cache_stats.flushes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvariants,
                         ::testing::Range<std::uint64_t>(1, 25));

ContentionParams random_contention(Xoshiro256& rng) {
  // Zeroes stay likely so the off-path keeps getting fuzzed too.
  ContentionParams p;
  p.mshrs = rng.next_below(2) ? rng.next_below(8) : 0;
  p.ports = rng.next_below(2) ? rng.next_below(4) : 0;
  p.bytes_per_cycle = rng.next_below(2) ? 1u << rng.next_below(5) : 0;
  p.mshr_latency_cycles = 1 + rng.next_below(64);
  p.port_cycles = 1 + rng.next_below(6);
  return p;
}

class FuzzContention : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzContention, ResourceLimitsObeyTheStructuralLaws) {
  // For arbitrary workloads, configs, and contention parameters
  // (core/contention.h): the cycle identity survives, the per-resource
  // breakdown stays a subset of the stall total, all-zero limits are
  // bit-identical to no contention block at all, and finite resources
  // never beat unlimited ones.
  Xoshiro256 rng(GetParam() * 1000003);
  const WorkloadSpec spec = random_spec(rng);
  SimConfig cfg = random_config(rng);
  cfg.latency.hit_cycles = rng.next_below(3);
  cfg.latency.miss_cycles = rng.next_below(12);
  constexpr std::uint64_t kAccesses = 60'000;

  const auto run_with = [&](const ContentionParams& p) {
    SimConfig c = cfg;
    c.contention = p;
    SyntheticTraceSource src(spec, kAccesses);
    return Simulator(c).run(src, &aging().lut());
  };

  const SimResult plain = run_with(ContentionParams{});
  ContentionParams off;  // limits zero, scalars non-default: still off
  off.mshr_latency_cycles = 1 + rng.next_below(64);
  off.port_cycles = 1 + rng.next_below(6);
  const SimResult degenerate = run_with(off);
  EXPECT_EQ(degenerate.total_cycles, plain.total_cycles);
  EXPECT_EQ(degenerate.stall_cycles, plain.stall_cycles);
  EXPECT_EQ(degenerate.config_label, plain.config_label);
  EXPECT_EQ(degenerate.mshr_stall_cycles, 0u);
  EXPECT_EQ(degenerate.port_stall_cycles, 0u);
  EXPECT_EQ(degenerate.bw_stall_cycles, 0u);
  EXPECT_DOUBLE_EQ(degenerate.energy.partitioned.total_pj(),
                   plain.energy.partitioned.total_pj());

  const ContentionParams p = random_contention(rng);
  const SimResult r = run_with(p);
  EXPECT_EQ(r.accesses, kAccesses);
  EXPECT_EQ(r.total_cycles, r.accesses + r.stall_cycles);
  const std::uint64_t breakdown =
      r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles;
  EXPECT_LE(breakdown, r.stall_cycles);
  // Monotonicity against the unlimited baseline: contention stalls are
  // additive, so they can only lengthen the run.
  EXPECT_GE(r.total_cycles, plain.total_cycles);
  EXPECT_EQ(r.total_cycles, plain.total_cycles + breakdown);
  // Hit/miss behaviour is contention-blind — only time stretches.
  EXPECT_EQ(r.cache_stats.hits, plain.cache_stats.hits);
  EXPECT_EQ(r.cache_stats.writebacks, plain.cache_stats.writebacks);
  if (!p.enabled()) {
    EXPECT_EQ(breakdown, 0u);
    EXPECT_EQ(r.total_cycles, plain.total_cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzContention,
                         ::testing::Range<std::uint64_t>(1, 17));

// Batched-vs-scalar under fuzzed configs: for random architectures and
// workloads, the batched driver loop must reproduce the scalar loop's
// SimResult exactly.  (The exhaustive fixed-grid version lives in
// tests/batched_access_test.cc; this keeps the corner-finding pressure
// on odd bank counts, granularities and stream mixes.)
class FuzzBatchedEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBatchedEquivalence, BatchedLoopMatchesScalarLoop) {
  Xoshiro256 rng(GetParam() * 7919 + 1);
  const WorkloadSpec spec = random_spec(rng);
  SimConfig cfg = random_config(rng);
  cfg.granularity = static_cast<Granularity>(rng.next_below(4));
  if (cfg.granularity == Granularity::kWay) cfg.cache.ways = 2;
  if (rng.next_below(2)) {
    cfg.policy = PowerPolicy::kDrowsyHybrid;
    cfg.drowsy_window_cycles = rng.next_below(100);
  }
  if (rng.next_below(2)) {
    cfg.latency.hit_cycles = rng.next_below(3);
    cfg.latency.miss_cycles = rng.next_below(12);
    cfg.latency.drowsy_wake_cycles = rng.next_below(4);
    cfg.latency.gated_wake_cycles = rng.next_below(9);
  }
  constexpr std::uint64_t kAccesses = 60'000;

  SimConfig scalar_cfg = cfg;
  scalar_cfg.force_scalar_loop = true;
  SyntheticTraceSource sa(spec, kAccesses);
  const SimResult s = Simulator(scalar_cfg).run(sa, &aging().lut());

  SimConfig batched_cfg = cfg;
  batched_cfg.force_scalar_loop = false;
  SyntheticTraceSource sb(spec, kAccesses);
  const SimResult b = Simulator(batched_cfg).run(sb, &aging().lut());

  EXPECT_EQ(s.accesses, b.accesses);
  EXPECT_EQ(s.total_cycles, b.total_cycles);
  EXPECT_EQ(s.stall_cycles, b.stall_cycles);
  EXPECT_EQ(s.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(s.cache_stats.misses, b.cache_stats.misses);
  EXPECT_EQ(s.cache_stats.writebacks, b.cache_stats.writebacks);
  EXPECT_EQ(s.cache_stats.flushes, b.cache_stats.flushes);
  EXPECT_EQ(s.reindex_updates_applied, b.reindex_updates_applied);
  ASSERT_EQ(s.units.size(), b.units.size());
  for (std::size_t u = 0; u < s.units.size(); ++u) {
    EXPECT_EQ(s.units[u].accesses, b.units[u].accesses);
    EXPECT_EQ(s.units[u].sleep_cycles, b.units[u].sleep_cycles);
    EXPECT_EQ(s.units[u].sleep_episodes, b.units[u].sleep_episodes);
    EXPECT_EQ(s.units[u].drowsy_cycles, b.units[u].drowsy_cycles);
    EXPECT_EQ(s.units[u].sleep_residency, b.units[u].sleep_residency);
  }
  EXPECT_EQ(s.energy.partitioned.total_pj(), b.energy.partitioned.total_pj());
  EXPECT_EQ(s.lifetime_years(), b.lifetime_years());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBatchedEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(FuzzDeterminism, SameSeedSameResult) {
  for (std::uint64_t seed : {3u, 11u}) {
    Xoshiro256 rng_a(seed), rng_b(seed);
    const WorkloadSpec spec_a = random_spec(rng_a);
    const WorkloadSpec spec_b = random_spec(rng_b);
    const SimConfig cfg_a = random_config(rng_a);
    const SimConfig cfg_b = random_config(rng_b);
    SyntheticTraceSource sa(spec_a, 60'000), sb(spec_b, 60'000);
    const SimResult a = Simulator(cfg_a).run(sa, &aging().lut());
    const SimResult b = Simulator(cfg_b).run(sb, &aging().lut());
    EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
    EXPECT_DOUBLE_EQ(a.lifetime_years(), b.lifetime_years());
    EXPECT_DOUBLE_EQ(a.energy.partitioned.total_pj(),
                     b.energy.partitioned.total_pj());
  }
}

}  // namespace
}  // namespace pcal
