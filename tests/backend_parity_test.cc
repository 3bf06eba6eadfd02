// The degeneracy parities, executed through the SweepRunner pool so they
// hold at any worker count:
//
//   1. drowsy hybrid with a disabled window  == gated backend
//   2. way-grain at 1 way/bank               == banked backend
//   3. L1 + zero-size L2                     == single-level run
//   4. explicit all-zero latencies           == the default clock
//   5. 1-level hierarchy                     == single-level run
//   6. 2-level non-inclusive hierarchy       == the legacy L1+L2 path
//      (two_level_variant), stats, residencies and energy bit for bit
//   7. explicit all-zero contention limits   == the legacy timing
//      (no resource model in the loop, stalls and labels included)
//
// CMake registers this binary three times: default pool width, pinned to
// PCAL_SWEEP_THREADS=1, and pinned to 8 — the acceptance criterion that
// the parities are scheduling-independent.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/sweep.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 60'000;

const std::vector<std::string>& workloads() {
  static const std::vector<std::string> w = {"cjpeg", "sha", "dijkstra",
                                             "fft_1"};
  return w;
}

SweepJob job_for(const SimConfig& config, const std::string& workload) {
  SweepJob job;
  job.config = config;
  const WorkloadSpec spec = make_mediabench_workload(workload);
  job.make_source = [spec] {
    return std::make_unique<SyntheticTraceSource>(spec, kAccesses);
  };
  return job;
}

/// Runs (a, b) job pairs on the pool and checks each pair's SimResults
/// are bit-identical in every observable the parity covers.
void expect_pairwise_identical(const std::vector<SweepJob>& jobs) {
  SweepRunner runner;  // width from PCAL_SWEEP_THREADS / hardware
  const std::vector<SweepOutcome> out = runner.run(jobs);
  ASSERT_EQ(out.size() % 2, 0u);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    ASSERT_TRUE(out[i].ok());
    ASSERT_TRUE(out[i + 1].ok());
    const SimResult& a = out[i].result;
    const SimResult& b = out[i + 1].result;
    EXPECT_EQ(a.accesses, b.accesses) << a.workload;
    EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits) << a.workload;
    EXPECT_EQ(a.cache_stats.writebacks, b.cache_stats.writebacks);
    EXPECT_EQ(a.reindex_updates_applied, b.reindex_updates_applied);
    ASSERT_EQ(a.units.size(), b.units.size()) << a.workload;
    for (std::size_t u = 0; u < a.units.size(); ++u) {
      EXPECT_EQ(a.units[u].accesses, b.units[u].accesses);
      EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles);
      EXPECT_EQ(a.units[u].sleep_episodes, b.units[u].sleep_episodes);
      EXPECT_DOUBLE_EQ(a.units[u].sleep_residency,
                       b.units[u].sleep_residency);
    }
    EXPECT_DOUBLE_EQ(a.energy.partitioned.total_pj(),
                     b.energy.partitioned.total_pj())
        << a.workload;
    EXPECT_DOUBLE_EQ(a.energy.baseline_pj, b.energy.baseline_pj);
  }
}

TEST(BackendParitySweep, DrowsyWindowDisabledEqualsGated) {
  const SimConfig gated = paper_config(8192, 16, 4);
  const SimConfig drowsy0 = drowsy_hybrid_variant(gated, 0);
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads()) {
    jobs.push_back(job_for(gated, w));
    jobs.push_back(job_for(drowsy0, w));
  }
  expect_pairwise_identical(jobs);
}

TEST(BackendParitySweep, WayGrainAtOneWayEqualsBanked) {
  SimConfig bank = paper_config(8192, 16, 4);
  bank.breakeven_override = 24;  // same counter on both sides
  ASSERT_EQ(bank.cache.ways, 1u);
  const SimConfig way = way_grain_variant(bank);
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads()) {
    jobs.push_back(job_for(bank, w));
    jobs.push_back(job_for(way, w));
  }
  // Energy intentionally differs between the two (the bank run is
  // priced by the paper's parameters, the way run by energy_params), so
  // compare everything else pairwise here.
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    ASSERT_TRUE(out[i].ok() && out[i + 1].ok());
    const SimResult& a = out[i].result;
    const SimResult& b = out[i + 1].result;
    EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits) << a.workload;
    ASSERT_EQ(a.units.size(), b.units.size());
    for (std::size_t u = 0; u < a.units.size(); ++u) {
      EXPECT_EQ(a.units[u].accesses, b.units[u].accesses);
      EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles);
      EXPECT_DOUBLE_EQ(a.units[u].sleep_residency,
                       b.units[u].sleep_residency);
    }
    EXPECT_GT(b.energy.partitioned.total_pj(), 0.0);
  }
}

TEST(BackendParitySweep, ZeroSizeL2EqualsSingleLevel) {
  const SimConfig single = paper_config(8192, 16, 4);
  SimConfig zero_l2 = single;
  LevelConfig l2;
  l2.topology.cache.size_bytes = 0;
  zero_l2.lower_levels.push_back(l2);
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads()) {
    jobs.push_back(job_for(single, w));
    jobs.push_back(job_for(zero_l2, w));
  }
  expect_pairwise_identical(jobs);
}

TEST(BackendParitySweep, ZeroLatencyEqualsDefaultClock) {
  // Explicitly spelled-out zero latencies are the default idealized
  // clock, across a single level and a two-level hierarchy; the timed
  // observables agree too (no stalls, total == accesses).
  const SimConfig bank = paper_config(8192, 16, 4);
  SimConfig timed_zero = bank;
  timed_zero.latency = LatencyParams{};  // all zero, spelled out
  SimConfig two = two_level_variant(bank, 64 * 1024, 4, 64);
  SimConfig two_zero = two;
  two_zero.lower_levels[0].topology.latency = LatencyParams{};
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads()) {
    jobs.push_back(job_for(bank, w));
    jobs.push_back(job_for(timed_zero, w));
    jobs.push_back(job_for(two, w));
    jobs.push_back(job_for(two_zero, w));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  for (const SweepOutcome& o : out) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.result.stall_cycles, 0u);
    EXPECT_EQ(o.result.total_cycles, o.result.accesses);
    EXPECT_DOUBLE_EQ(o.result.avg_access_latency(), 1.0);
  }
  expect_pairwise_identical(jobs);
}

TEST(BackendParitySweep, UnlimitedContentionEqualsLegacyTiming) {
  // Parity 7: an explicitly spelled-out all-zero contention block
  // (core/contention.h) is the legacy timing — the resource model must
  // stay entirely out of the loop, stalls and clock included, across a
  // single level and a two-level hierarchy.
  const SimConfig bank = paper_config(8192, 16, 4);
  SimConfig unlimited = bank;
  unlimited.contention = ContentionParams{};  // all zero, spelled out
  SimConfig two = two_level_variant(bank, 64 * 1024, 4, 64);
  SimConfig two_unlimited = two;
  two_unlimited.contention = ContentionParams{};
  two_unlimited.lower_levels[0].topology.contention = ContentionParams{};
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads()) {
    jobs.push_back(job_for(bank, w));
    jobs.push_back(job_for(unlimited, w));
    jobs.push_back(job_for(two, w));
    jobs.push_back(job_for(two_unlimited, w));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    ASSERT_TRUE(out[i].ok() && out[i + 1].ok());
    const SimResult& a = out[i].result;
    const SimResult& b = out[i + 1].result;
    EXPECT_EQ(a.total_cycles, b.total_cycles) << a.workload;
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.config_label, b.config_label);
    EXPECT_EQ(b.mshr_stall_cycles, 0u);
    EXPECT_EQ(b.port_stall_cycles, 0u);
    EXPECT_EQ(b.bw_stall_cycles, 0u);
  }
  expect_pairwise_identical(jobs);
}

TEST(BackendParitySweep, TwoLevelNonInclusiveEqualsLegacyTwoLevel) {
  // The N-level rewrite must keep the legacy two-level semantics bit for
  // bit: a hand-assembled 2-level non-inclusive stack equals the
  // two_level_variant helper (which reproduces the old SimConfig::l2
  // construction exactly).
  const SimConfig base = paper_config(8192, 16, 4);
  const SimConfig legacy = two_level_variant(base, 64 * 1024, 4, 64);
  SimConfig manual = base;
  LevelConfig l2;
  l2.inclusion = InclusionPolicy::kNonInclusive;
  l2.topology.granularity = Granularity::kBank;
  l2.topology.cache = base.cache;
  l2.topology.cache.size_bytes = 64 * 1024;
  l2.topology.partition.num_banks = 4;
  l2.topology.indexing = base.indexing;
  l2.topology.indexing_seed = base.indexing_seed + 1;
  l2.topology.breakeven_cycles = 64;
  manual.lower_levels.push_back(l2);
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads()) {
    jobs.push_back(job_for(legacy, w));
    jobs.push_back(job_for(manual, w));
  }
  expect_pairwise_identical(jobs);
}

TEST(BackendParitySweep, TwoLevelKeepsSeedObservables) {
  // Anchor the legacy L1+L2 semantics themselves (not just helper
  // equality): the L2 consumes exactly the L1 miss stream, both levels
  // share the global clock, and the stack's config label names both
  // levels — the facts the pre-refactor engine established.
  const SimConfig two =
      two_level_variant(paper_config(8192, 16, 4), 64 * 1024, 4, 64);
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads()) jobs.push_back(job_for(two, w));
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  for (const SweepOutcome& o : out) {
    ASSERT_TRUE(o.ok());
    const SimResult& r = o.result;
    ASSERT_EQ(r.num_levels(), 2u);
    EXPECT_EQ(r.level_stats[1].accesses, r.cache_stats.misses);
    EXPECT_EQ(r.total_cycles, r.accesses);
    EXPECT_EQ(r.units.size(), 8u);
    EXPECT_NE(r.config_label.find(" | L2 "), std::string::npos);
    EXPECT_GT(r.energy.partitioned.total_pj(), 0.0);
  }
}

}  // namespace
}  // namespace pcal
