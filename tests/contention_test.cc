// Finite-resource contention (core/contention.h): the unit semantics of
// MSHRs / ports / bandwidth, and the driver-level laws the ISSUE pins:
//
//   (a) unlimited resources == the current timing bit for bit, across
//       randomized configs and all five backends (mono, bank, way, line,
//       drowsy hybrid), executed through the SweepRunner pool;
//   (b) the cycle identity total_cycles == accesses + stall_cycles holds
//       with contention on, and the per-resource breakdown never exceeds
//       the stall total;
//   (c) monotonicity: shrinking any resource never decreases
//       total_cycles (finite vs unlimited is provable; the fixed ladders
//       pin the deterministic finite-vs-finite points), and one MSHR
//       slows a streaming walk measurably more than a hotspot;
//   (d) determinism: repeated pool runs of contention-on jobs are
//       bit-identical.  CMake registers this binary three times (default
//       width, PCAL_SWEEP_THREADS=1, =8), so (a)-(d) are checked at
//       every pool width.
#include <gtest/gtest.h>

#include "core/contention.h"
#include "core/experiment.h"
#include "core/multicore.h"
#include "core/sweep.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/rng.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 50'000;

SweepJob job_for(const SimConfig& config, const WorkloadSpec& spec) {
  SweepJob job;
  job.config = config;
  job.make_source = [spec] {
    return std::make_unique<SyntheticTraceSource>(spec, kAccesses);
  };
  job.label = spec.name;
  return job;
}

/// streaming and hotspot over 64kB, or a MediaBench workload.
SweepJob job_for(const SimConfig& config, const std::string& workload) {
  if (workload == "streaming")
    return job_for(config, make_streaming_workload(64 * 1024));
  if (workload == "hotspot")
    return job_for(config, make_hotspot_workload(64 * 1024));
  return job_for(config, make_mediabench_workload(workload));
}

SimResult run_one(const SimConfig& config, const std::string& workload) {
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run({job_for(config, workload)});
  EXPECT_TRUE(out.front().ok()) << out.front().error_what;
  return out.front().result;
}

/// Every observable the off-switch degeneracy must preserve, including
/// the config label (a contention-off config must not grow a suffix).
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.config_label, b.config_label);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.writebacks, b.cache_stats.writebacks);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].accesses, b.units[u].accesses);
    EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles);
    EXPECT_EQ(a.units[u].sleep_episodes, b.units[u].sleep_episodes);
    EXPECT_DOUBLE_EQ(a.units[u].sleep_residency, b.units[u].sleep_residency);
  }
  EXPECT_DOUBLE_EQ(a.energy.partitioned.total_pj(),
                   b.energy.partitioned.total_pj());
  EXPECT_DOUBLE_EQ(a.energy.baseline_pj, b.energy.baseline_pj);
}

// ---- ContentionModel unit semantics ----

ContentionLevelShape shape_of(ContentionParams params,
                              std::uint64_t num_units = 4,
                              std::uint64_t num_banks = 4,
                              std::uint64_t line_bytes = 16) {
  ContentionLevelShape shape;
  shape.params = params;
  shape.num_units = num_units;
  shape.num_banks = num_banks;
  shape.line_bytes = line_bytes;
  return shape;
}

ContentionEvent event(std::uint64_t unit, std::uint64_t address, bool miss,
                      bool writeback = false) {
  ContentionEvent e;
  e.level = 0;
  e.unit = unit;
  e.address = address;
  e.miss = miss;
  e.writeback = writeback;
  return e;
}

TEST(ContentionModel, AllZeroParamsDisableTheModel) {
  ContentionModel model({shape_of(ContentionParams{})});
  EXPECT_FALSE(model.enabled());
  EXPECT_EQ(model.on_event(event(0, 0, true), 0).total(), 0u);
  EXPECT_EQ(model.totals().total(), 0u);
  EXPECT_EQ(ContentionParams{}.describe(), "");
}

TEST(ContentionModel, PortContentionNeedsCycleTimeBeyondOne) {
  // port_cycles = 3, one port per bank: back-to-back references to the
  // same bank stall by the residual occupancy; a different bank's pool
  // is untouched.
  ContentionParams p;
  p.ports = 1;
  p.port_cycles = 3;
  ContentionModel model({shape_of(p)});
  ASSERT_TRUE(model.enabled());
  EXPECT_EQ(model.on_event(event(0, 0, false), 0).total(), 0u);
  const ContentionStall s1 = model.on_event(event(0, 16, false), 1);
  EXPECT_EQ(s1.port, 2u);  // port busy until 3, arrived at 1
  EXPECT_EQ(s1.total(), 2u);
  EXPECT_EQ(model.on_event(event(1, 32, false), 2).total(), 0u);  // bank 1
  EXPECT_EQ(model.totals().port, 2u);
}

TEST(ContentionModel, FullyPipelinedPortNeverContends) {
  // The default port_cycles = 1 on the blocking clock: each access
  // arrives at least one cycle after the previous, so the port is free.
  ContentionParams p;
  p.ports = 1;
  ContentionModel model({shape_of(p)});
  std::uint64_t now = 0;
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(model.on_event(event(0, 0, false), now++).total(), 0u);
  EXPECT_EQ(model.totals().total(), 0u);
}

TEST(ContentionModel, MshrAllocateStallAndMerge) {
  ContentionParams p;
  p.mshrs = 1;
  p.mshr_latency_cycles = 10;
  ContentionModel model({shape_of(p)});
  // First miss allocates (line 0, in flight until 10).
  EXPECT_EQ(model.on_event(event(0, 0, true), 0).total(), 0u);
  // A miss to the same line merges: no allocation, no stall.
  EXPECT_EQ(model.on_event(event(0, 8, true), 1).total(), 0u);
  // A different line must wait for the single entry to free.
  const ContentionStall s = model.on_event(event(0, 64, true), 2);
  EXPECT_EQ(s.mshr, 8u);  // entry frees at 10, arrived at 2
  EXPECT_EQ(s.port, 0u);
  EXPECT_EQ(s.bw, 0u);
  // After the fill lifetime everything is free again.
  EXPECT_EQ(model.on_event(event(0, 128, true), 40).total(), 0u);
}

TEST(ContentionModel, MshrMergesWithinOneLineOnly) {
  // 16-byte lines: 15 and 16 straddle a line boundary, 16 and 31 do not.
  ContentionParams p;
  p.mshrs = 2;
  p.mshr_latency_cycles = 10;
  ContentionModel model({shape_of(p)});
  EXPECT_EQ(model.on_event(event(0, 15, true), 0).total(), 0u);  // line 0
  EXPECT_EQ(model.on_event(event(0, 16, true), 1).total(), 0u);  // line 1
  EXPECT_EQ(model.on_event(event(0, 31, true), 2).total(), 0u);  // merged
  // Line 2 finds both entries busy until 10 and 11.
  EXPECT_EQ(model.on_event(event(0, 32, true), 3).mshr, 7u);
}

TEST(ContentionModel, BandwidthFillStallsAndWritebackIsPosted) {
  ContentionParams p;
  p.bytes_per_cycle = 4;  // 16B line -> 4-cycle transfer
  ContentionModel model({shape_of(p)});
  EXPECT_EQ(model.on_event(event(0, 0, true), 0).total(), 0u);
  // Edge busy until 4; the next fill at t=1 stalls 3 cycles.
  const ContentionStall s = model.on_event(event(0, 64, true), 1);
  EXPECT_EQ(s.bw, 3u);
  // A dirty victim posts a second transfer (edge now busy until 12) but
  // does not itself stall this access beyond the fill.
  const ContentionStall wb = model.on_event(event(0, 128, true), 5);
  EXPECT_EQ(wb.bw, 3u);  // edge busy until 8 from the previous fill
  // Hits never touch the edge.
  EXPECT_EQ(model.on_event(event(0, 0, false), 6).total(), 0u);
}

TEST(ContentionModel, MergedMissSkipsTheBandwidthTransfer) {
  ContentionParams p;
  p.mshrs = 2;
  p.mshr_latency_cycles = 20;
  p.bytes_per_cycle = 1;  // 16-cycle transfer: any second fill stalls
  ContentionModel model({shape_of(p)});
  EXPECT_EQ(model.on_event(event(0, 0, true), 0).total(), 0u);
  // Same line while in flight: merged, so no second transfer and no
  // bandwidth stall despite the busy edge.
  EXPECT_EQ(model.on_event(event(0, 4, true), 1).total(), 0u);
  // A different line pays the edge residency.
  EXPECT_GT(model.on_event(event(0, 64, true), 2).bw, 0u);
}

TEST(ContentionModel, DescribeAndValidate) {
  ContentionParams p;
  p.mshrs = 4;
  p.ports = 2;
  p.port_cycles = 4;
  p.bytes_per_cycle = 8;
  EXPECT_EQ(p.describe(), "mshr4/p2x4/bw8");
  p.mshr_latency_cycles = 16;
  EXPECT_EQ(p.describe(), "mshr4:16/p2x4/bw8");
  ContentionParams bad;
  bad.mshrs = 2;
  bad.mshr_latency_cycles = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = ContentionParams{};
  bad.ports = 1;
  bad.port_cycles = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(ContentionModel, ValidateBoundsWhatOneKeyCanCost) {
  // Every miss scans the MSHR file and the port table holds ports x banks
  // entries, so both counts are capped; so are the hold times.
  ContentionParams p;
  p.mshrs = ContentionParams::kMaxMshrs;
  p.ports = ContentionParams::kMaxPortsPerBank;
  p.mshr_latency_cycles = LatencyParams::kMaxEventCycles;
  p.port_cycles = LatencyParams::kMaxEventCycles;
  EXPECT_NO_THROW(p.validate());
  ContentionParams bad = p;
  bad.mshrs = ContentionParams::kMaxMshrs + 1;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = p;
  bad.ports = ContentionParams::kMaxPortsPerBank + 1;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = p;
  bad.mshr_latency_cycles = UINT64_MAX;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = p;
  bad.port_cycles = LatencyParams::kMaxEventCycles + 1;
  EXPECT_THROW(bad.validate(), ConfigError);
}

// ---- (a) off-switch degeneracy across all five backends ----

TEST(ContentionSweep, UnlimitedResourcesMatchLegacyOnAllFiveBackends) {
  // A contention block whose limits are all zero — even with non-default
  // hold-time scalars — must leave every observable of every backend bit
  // for bit, labels included.  Latencies are nonzero so the timing path
  // being preserved is the non-trivial one.
  SimConfig base = paper_config(8192, 16, 4);
  base.latency.hit_cycles = 1;
  base.latency.miss_cycles = 9;
  base.latency.gated_wake_cycles = 3;
  ContentionParams off;
  off.mshr_latency_cycles = 7;  // scalars without limits stay inert
  off.port_cycles = 5;
  const std::vector<SimConfig> backends = {
      monolithic_variant(base), base, way_grain_variant(base),
      line_grain_variant(base), drowsy_hybrid_variant(base, 64)};
  std::vector<SweepJob> jobs;
  for (const SimConfig& cfg : backends) {
    SimConfig with_off = cfg;
    with_off.contention = off;
    jobs.push_back(job_for(cfg, "cjpeg"));
    jobs.push_back(job_for(with_off, "cjpeg"));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  ASSERT_EQ(out.size(), backends.size() * 2);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    ASSERT_TRUE(out[i].ok() && out[i + 1].ok());
    expect_identical(out[i].result, out[i + 1].result);
    EXPECT_EQ(out[i + 1].result.mshr_stall_cycles, 0u);
    EXPECT_EQ(out[i + 1].result.port_stall_cycles, 0u);
    EXPECT_EQ(out[i + 1].result.bw_stall_cycles, 0u);
  }
}

TEST(ContentionSweep, UnlimitedResourcesMatchLegacyOnRandomConfigs) {
  // The same degeneracy over randomized geometry/indexing/granularity
  // points, hierarchies included.
  Xoshiro256 rng(2026);
  std::vector<SweepJob> jobs;
  for (int i = 0; i < 8; ++i) {
    SimConfig cfg;
    cfg.cache.size_bytes = 4096u << rng.next_below(3);
    cfg.cache.line_bytes = 16u << rng.next_below(2);
    cfg.partition.num_banks = 1u << (1 + rng.next_below(3));
    cfg.indexing = static_cast<IndexingKind>(rng.next_below(3));
    cfg.granularity =
        rng.next_below(2) ? Granularity::kBank : Granularity::kWay;
    cfg.latency.hit_cycles = rng.next_below(3);
    cfg.latency.miss_cycles = rng.next_below(16);
    cfg.reindex_updates = rng.next_below(20);
    if (rng.next_below(2))
      cfg = with_lower_level(cfg, 64 * 1024, 4, 64,
                             static_cast<InclusionPolicy>(rng.next_below(4)));
    SimConfig with_off = cfg;
    // Random hold-time scalars: without limits the model must stay off.
    with_off.contention.mshr_latency_cycles = 1 + rng.next_below(64);
    with_off.contention.port_cycles = 1 + rng.next_below(8);
    const char* workload = rng.next_below(2) ? "streaming" : "hotspot";
    jobs.push_back(job_for(cfg, workload));
    jobs.push_back(job_for(with_off, workload));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    ASSERT_TRUE(out[i].ok() && out[i + 1].ok()) << jobs[i].label;
    expect_identical(out[i].result, out[i + 1].result);
  }
}

// ---- (b) cycle identity with contention on ----

ContentionParams tight_params() {
  ContentionParams p;
  p.mshrs = 2;
  p.mshr_latency_cycles = 24;
  p.ports = 1;
  p.port_cycles = 2;
  p.bytes_per_cycle = 4;
  return p;
}

TEST(ContentionSweep, CycleIdentityHoldsWithContentionOn) {
  SimConfig base = paper_config(8192, 16, 4);
  base.latency.miss_cycles = 4;
  std::vector<SimConfig> configs = {
      monolithic_variant(base), base, way_grain_variant(base),
      line_grain_variant(base), drowsy_hybrid_variant(base, 64)};
  // A two-level stack with contention on both levels.
  SimConfig two = two_level_variant(base, 64 * 1024, 4, 64);
  two.lower_levels[0].topology.contention = tight_params();
  configs.push_back(two);
  std::vector<SweepJob> jobs;
  for (SimConfig& cfg : configs) {
    cfg.contention = tight_params();
    jobs.push_back(job_for(cfg, "streaming"));
    jobs.push_back(job_for(cfg, "hotspot"));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  bool any_contention = false;
  for (const SweepOutcome& o : out) {
    ASSERT_TRUE(o.ok()) << o.error_what;
    const SimResult& r = o.result;
    EXPECT_EQ(r.total_cycles, r.accesses + r.stall_cycles);
    const std::uint64_t breakdown =
        r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles;
    EXPECT_LE(breakdown, r.stall_cycles);
    any_contention = any_contention || breakdown > 0;
    EXPECT_NE(r.config_label.find("cont="), std::string::npos);
  }
  // The limits above are tight enough that at least one run must have
  // actually contended — otherwise the identity check proved nothing.
  EXPECT_TRUE(any_contention);
}

// ---- (c) monotonicity ----

TEST(ContentionSweep, FiniteResourcesNeverBeatUnlimited) {
  SimConfig base = paper_config(8192, 16, 4);
  std::vector<SweepJob> jobs;
  std::vector<ContentionParams> finites;
  for (const std::uint64_t mshrs : {1u, 4u}) {
    ContentionParams p;
    p.mshrs = mshrs;
    finites.push_back(p);
  }
  {
    ContentionParams p;
    p.bytes_per_cycle = 2;
    finites.push_back(p);
    p = ContentionParams{};
    p.ports = 1;
    p.port_cycles = 4;
    finites.push_back(p);
  }
  for (const ContentionParams& p : finites) {
    SimConfig finite = base;
    finite.contention = p;
    jobs.push_back(job_for(base, "streaming"));
    jobs.push_back(job_for(finite, "streaming"));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    ASSERT_TRUE(out[i].ok() && out[i + 1].ok());
    EXPECT_GE(out[i + 1].result.total_cycles, out[i].result.total_cycles);
  }
}

TEST(ContentionSweep, ShrinkingAnyResourceIsMonotone) {
  // Deterministic ladders: as one resource shrinks (all else fixed),
  // total_cycles never decreases.  Pinned per resource on the workload
  // that exercises it (streaming for misses, hotspot for ports).
  const SimConfig base = paper_config(8192, 16, 4);
  const auto total_for = [&](const ContentionParams& p,
                             const std::string& workload) {
    SimConfig cfg = base;
    cfg.contention = p;
    return run_one(cfg, workload).total_cycles;
  };
  std::uint64_t prev = 0;
  for (const std::uint64_t mshrs : {16u, 8u, 4u, 2u, 1u}) {
    ContentionParams p;
    p.mshrs = mshrs;
    const std::uint64_t total = total_for(p, "streaming");
    EXPECT_GE(total, prev) << "mshrs=" << mshrs;
    prev = total;
  }
  prev = 0;
  for (const std::uint64_t bw : {16u, 8u, 4u, 2u, 1u}) {
    ContentionParams p;
    p.bytes_per_cycle = bw;
    const std::uint64_t total = total_for(p, "streaming");
    EXPECT_GE(total, prev) << "bandwidth=" << bw;
    prev = total;
  }
  prev = 0;
  for (const std::uint64_t ports : {4u, 2u, 1u}) {
    ContentionParams p;
    p.ports = ports;
    p.port_cycles = 4;
    const std::uint64_t total = total_for(p, "hotspot");
    EXPECT_GE(total, prev) << "ports=" << ports;
    prev = total;
  }
}

TEST(ContentionSweep, OneMshrSeparatesStreamingFromHotspot) {
  // Finite MSHRs must tell high from low memory-level parallelism, or
  // the model is inert.  On the paper's 8kB/16B M=4 cache with an
  // 8-cycle miss, one MSHR slows a 256kB streaming walk (every access a
  // miss) by more than 5%, in MSHR stalls, and by more than a hotspot
  // that lives in 8kB.
  SimConfig unlimited = paper_config(8192, 16, 4);
  unlimited.latency.miss_cycles = 8;
  SimConfig one_mshr = unlimited;
  one_mshr.contention.mshrs = 1;
  std::vector<SweepJob> jobs;
  for (const WorkloadSpec& spec : {make_streaming_workload(256 * 1024),
                                   make_hotspot_workload(8 * 1024)}) {
    jobs.push_back(job_for(unlimited, spec));
    jobs.push_back(job_for(one_mshr, spec));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> out = runner.run(jobs);
  for (const SweepOutcome& o : out) ASSERT_TRUE(o.ok()) << o.error_what;
  const auto slowdown = [&](std::size_t tight) {
    return static_cast<double>(out[tight].result.total_cycles) /
           static_cast<double>(out[tight - 1].result.total_cycles);
  };
  const double streaming = slowdown(1), hotspot = slowdown(3);
  EXPECT_GT(streaming, 1.05);
  EXPECT_GT(out[1].result.mshr_stall_cycles, 0u);
  EXPECT_GT(streaming, hotspot);
}

// ---- (d) determinism ----

TEST(ContentionSweep, RepeatedPoolRunsAreBitIdentical) {
  // The CMake _serial/_mt registrations re-run this whole binary at 1
  // and 8 workers; within one width, repeated runs of contention-on
  // jobs must already be bit-identical (no hidden shared state in the
  // model).
  SimConfig cfg = paper_config(8192, 16, 4);
  cfg.contention = tight_params();
  SimConfig two = two_level_variant(cfg, 64 * 1024, 4, 64);
  two.lower_levels[0].topology.contention = tight_params();
  std::vector<SweepJob> jobs;
  for (const char* w : {"streaming", "hotspot", "cjpeg"}) {
    jobs.push_back(job_for(cfg, w));
    jobs.push_back(job_for(two, w));
  }
  SweepRunner runner;
  const std::vector<SweepOutcome> a = runner.run(jobs);
  const std::vector<SweepOutcome> b = runner.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok() && b[i].ok());
    EXPECT_EQ(a[i].result.total_cycles, b[i].result.total_cycles);
    EXPECT_EQ(a[i].result.mshr_stall_cycles, b[i].result.mshr_stall_cycles);
    EXPECT_EQ(a[i].result.port_stall_cycles, b[i].result.port_stall_cycles);
    EXPECT_EQ(a[i].result.bw_stall_cycles, b[i].result.bw_stall_cycles);
    expect_identical(a[i].result, b[i].result);
  }
}

// ---- multi-core integration ----

TEST(ContentionMultiCore, OneCoreDegeneracyHoldsWithContentionOn) {
  // A 1-core system over an unpartitioned LLC is the Simulator with the
  // LLC appended — the seed degeneracy — and that must survive finite
  // resources on both the private level and the LLC.
  SimConfig cfg = paper_config(8192, 16, 4);
  cfg.contention = tight_params();
  LevelConfig llc = cfg.make_level(64 * 1024);
  llc.topology.contention = tight_params();
  const MultiCoreConfig mc = make_multicore(cfg, 1, llc);

  SimConfig single = cfg;
  single.lower_levels.push_back(llc);

  const WorkloadSpec spec = make_streaming_workload(64 * 1024);
  SyntheticTraceSource a(spec, kAccesses), b(spec, kAccesses);
  const MultiCoreResult mr = MultiCoreSystem(mc).run({&a});
  const SimResult sr = Simulator(single).run(b);
  EXPECT_EQ(mr.system.total_cycles, sr.total_cycles);
  EXPECT_EQ(mr.system.stall_cycles, sr.stall_cycles);
  EXPECT_EQ(mr.system.mshr_stall_cycles, sr.mshr_stall_cycles);
  EXPECT_EQ(mr.system.port_stall_cycles, sr.port_stall_cycles);
  EXPECT_EQ(mr.system.bw_stall_cycles, sr.bw_stall_cycles);
  EXPECT_EQ(mr.system.cache_stats.hits, sr.cache_stats.hits);
}

TEST(ContentionMultiCore, SharedLlcResourcesStallAndKeepTheIdentity) {
  SimConfig cfg = paper_config(8192, 16, 4);
  LevelConfig llc = cfg.make_level(64 * 1024);
  llc.topology.contention.mshrs = 2;
  llc.topology.contention.bytes_per_cycle = 2;
  const MultiCoreConfig mc = make_multicore(cfg, 2, llc);
  const WorkloadSpec spec = make_streaming_workload(64 * 1024);
  SyntheticTraceSource a(spec, kAccesses), b(spec, kAccesses);
  const MultiCoreResult mr = MultiCoreSystem(mc).run({&a, &b});
  const SimResult& r = mr.system;
  EXPECT_EQ(r.total_cycles, r.accesses + r.stall_cycles);
  const std::uint64_t breakdown =
      r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles;
  EXPECT_GT(breakdown, 0u);
  EXPECT_LE(breakdown, r.stall_cycles);
}

}  // namespace
}  // namespace pcal
