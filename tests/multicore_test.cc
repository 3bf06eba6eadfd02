// MultiCoreSystem invariants (core/multicore.h):
//
//   1. the 1-core degeneracy: one unpartitioned core over the shared LLC
//      reproduces the single-stream Simulator — whose config is the
//      core's levels with the LLC appended — bit for bit (cycles, label,
//      per-unit stats, energy, lifetime, and the priced timeline
//      artifact byte for byte), multiprogrammed sources included;
//   2. scheduling independence: identical multi-core SweepJobs produce
//      identical outcomes on the SweepRunner pool (CMake registers this
//      binary at the default width, PCAL_SWEEP_THREADS=1 and =8);
//   3. way-mask validation rejects overlapping, partial and out-of-range
//      partitions, and per-line LLCs;
//   4. honest attribution: per-core accesses, stalls, level stats and
//      energy sum to the system totals;
//   5. the QoS effect is observable: a victim core's LLC traffic changes
//      between a fully shared and a way-partitioned LLC;
//   6. one clock: a 2-core run equals a hand replay of its weighted
//      round-robin order over test-owned caches, unit by unit, and so
//      does each core's slice of the shared LLC's traffic — on roomy
//      levels and on levels small enough that the LLC hits, misses and
//      sheds dirty victims.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "api/timeline.h"
#include "core/experiment.h"
#include "core/multicore.h"
#include "core/sweep.h"
#include "trace/multiprogram.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 60'000;

const AgingContext& aging() {
  static AgingContext* ctx = new AgingContext();
  return *ctx;
}

/// The paper L1 (8kB/16B, M=4, probing) over a 32kB bank-grain LLC.
SimConfig base_config() { return paper_config(8192, 16, 4); }

LevelConfig make_llc(const SimConfig& cfg, std::uint64_t ways = 8) {
  LevelConfig llc = cfg.make_level(32 * 1024);
  llc.topology.cache.ways = ways;
  llc.topology.partition.num_banks = 4;
  llc.topology.breakeven_cycles = 64;
  return llc;
}

std::unique_ptr<TraceSource> source_for(const std::string& name,
                                        std::uint64_t n = kAccesses) {
  const WorkloadSpec spec =
      name == "streaming" ? make_streaming_workload(256 * 1024)
                          : make_mediabench_workload(name);
  return std::make_unique<SyntheticTraceSource>(spec, n);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.config_label, b.config_label);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.breakeven_cycles, b.breakeven_cycles);
  EXPECT_EQ(a.reindex_updates_applied, b.reindex_updates_applied);
  EXPECT_EQ(a.cache_stats.accesses, b.cache_stats.accesses);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
  EXPECT_EQ(a.cache_stats.writebacks, b.cache_stats.writebacks);
  EXPECT_EQ(a.cache_stats.flushes, b.cache_stats.flushes);
  ASSERT_EQ(a.level_stats.size(), b.level_stats.size());
  for (std::size_t i = 0; i < a.level_stats.size(); ++i) {
    EXPECT_EQ(a.level_stats[i].accesses, b.level_stats[i].accesses) << i;
    EXPECT_EQ(a.level_stats[i].hits, b.level_stats[i].hits) << i;
    EXPECT_EQ(a.level_stats[i].writebacks, b.level_stats[i].writebacks) << i;
  }
  EXPECT_EQ(a.level_units, b.level_units);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].accesses, b.units[u].accesses) << u;
    EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles) << u;
    EXPECT_EQ(a.units[u].sleep_episodes, b.units[u].sleep_episodes) << u;
    EXPECT_EQ(a.units[u].drowsy_cycles, b.units[u].drowsy_cycles) << u;
    EXPECT_DOUBLE_EQ(a.units[u].sleep_residency, b.units[u].sleep_residency)
        << u;
    EXPECT_DOUBLE_EQ(a.units[u].lifetime_years, b.units[u].lifetime_years)
        << u;
  }
  EXPECT_DOUBLE_EQ(a.energy.partitioned.total_pj(),
                   b.energy.partitioned.total_pj());
  EXPECT_DOUBLE_EQ(a.energy.partitioned.dynamic_pj,
                   b.energy.partitioned.dynamic_pj);
  EXPECT_DOUBLE_EQ(a.energy.partitioned.transition_pj,
                   b.energy.partitioned.transition_pj);
  EXPECT_DOUBLE_EQ(a.energy.baseline_pj, b.energy.baseline_pj);
  EXPECT_DOUBLE_EQ(a.avg_residency(), b.avg_residency());
  EXPECT_DOUBLE_EQ(a.lifetime_years(), b.lifetime_years());
}

std::string timeline_json(const api::TimelineRecorder& recorder) {
  std::ostringstream os;
  recorder.write_json(os);
  return os.str();
}

/// Runs one input through the single-stream Simulator (config: the
/// paper L1 with the LLC appended) and through the 1-core system of
/// make_multicore, each observed by a timeline recorder priced from its
/// own config, and expects the two runs to be indistinguishable.
void expect_one_core_equals_simulator(
    const std::function<std::unique_ptr<TraceSource>()>& make_source) {
  const SimConfig base = base_config();
  const LevelConfig llc = make_llc(base);

  SimConfig single = base;
  single.lower_levels.push_back(llc);
  api::TimelineRecorder timeline_a;
  timeline_a.price_with(single);
  auto src_a = make_source();
  const SimResult a = Simulator(single).run(*src_a, &aging().lut(),
                                            timeline_a.observer());

  const MultiCoreConfig mc = make_multicore(base, 1, llc, 0);
  api::TimelineRecorder timeline_b;
  timeline_b.price_with(mc);
  auto src_b = make_source();
  const MultiCoreResult b = MultiCoreSystem(mc).run(
      {src_b.get()}, &aging().lut(), timeline_b.observer());

  expect_identical(a, b.system);
  EXPECT_EQ(timeline_json(timeline_a), timeline_json(timeline_b));

  // The single core owns everything.
  ASSERT_EQ(b.cores.size(), 1u);
  EXPECT_EQ(b.cores[0].accesses, a.accesses);
  EXPECT_EQ(b.cores[0].llc_stats.accesses, a.level_stats.back().accesses);
  EXPECT_DOUBLE_EQ(b.cores[0].energy.partitioned.total_pj(),
                   a.energy.partitioned.total_pj());
}

TEST(MultiCore, OneCoreUnpartitionedEqualsSimulator) {
  {
    SCOPED_TRACE("cjpeg");
    expect_one_core_equals_simulator([] { return source_for("cjpeg"); });
  }
  {
    // A multiprogrammed source: the update interval snaps to its
    // quantum, so every flush lands on a context switch.
    SCOPED_TRACE("multiprog:cjpeg+sha@7000");
    expect_one_core_equals_simulator([] {
      return std::make_unique<MultiProgramSource>(
          parse_multiprogram_spec("cjpeg+sha@7000", 32 * 1024), 200'000);
    });
  }
}

TEST(MultiCore, SweepJobsAreSchedulingIndependent) {
  // Identical 2-core jobs (private L1+L2 stacks, partitioned LLC) must
  // come back identical from the pool regardless of worker count.
  SimConfig base = base_config();
  base.lower_levels.push_back(base.make_level(16 * 1024));
  const MultiCoreConfig mc =
      make_multicore(base, 2, make_llc(base), /*ways_per_core=*/4);

  std::vector<SweepJob> jobs;
  for (int i = 0; i < 2; ++i) {
    SweepJob job;
    job.multicore = std::make_shared<const MultiCoreConfig>(mc);
    job.core_sources.push_back([] { return source_for("cjpeg"); });
    job.core_sources.push_back([] { return source_for("streaming"); });
    job.lut = &aging().lut();
    jobs.push_back(std::move(job));
  }
  SweepRunner runner;  // width from PCAL_SWEEP_THREADS / hardware
  const std::vector<SweepOutcome> out = runner.run(jobs);
  ASSERT_TRUE(out[0].ok());
  ASSERT_TRUE(out[1].ok());
  expect_identical(out[0].result, out[1].result);
  ASSERT_EQ(out[0].cores.size(), out[1].cores.size());
  for (std::size_t k = 0; k < out[0].cores.size(); ++k) {
    EXPECT_EQ(out[0].cores[k].accesses, out[1].cores[k].accesses);
    EXPECT_EQ(out[0].cores[k].llc_stats.hits, out[1].cores[k].llc_stats.hits);
    EXPECT_DOUBLE_EQ(out[0].cores[k].energy.partitioned.total_pj(),
                     out[1].cores[k].energy.partitioned.total_pj());
  }
}

TEST(MultiCore, WayMaskValidationRejectsBadPartitions) {
  const SimConfig base = base_config();
  const LevelConfig llc = make_llc(base);  // 8 ways

  // Overlapping masks.
  MultiCoreConfig overlapping = make_multicore(base, 2, llc, 4);
  overlapping.cores[1].llc_way_mask = overlapping.cores[0].llc_way_mask;
  EXPECT_THROW(overlapping.validate(), ConfigError);

  // Partial partitioning (one core masked, the other not).
  MultiCoreConfig partial = make_multicore(base, 2, llc, 4);
  partial.cores[1].llc_way_mask = 0;
  EXPECT_THROW(partial.validate(), ConfigError);

  // Mask bits beyond the LLC's associativity.
  MultiCoreConfig beyond = make_multicore(base, 2, llc, 4);
  beyond.cores[1].llc_way_mask = std::uint64_t{0xF} << 8;
  EXPECT_THROW(beyond.validate(), ConfigError);

  // make_multicore refuses masks that cannot fit 64 bits.
  EXPECT_THROW(make_multicore(base, 9, llc, 8), ConfigError);

  // A per-line LLC has no way-organized tag store to partition.
  MultiCoreConfig line = make_multicore(base, 2, llc, 4);
  line.llc.topology.granularity = Granularity::kLine;
  EXPECT_THROW(line.validate(), ConfigError);

  // The valid contiguous split passes.
  EXPECT_NO_THROW(make_multicore(base, 2, llc, 4).validate());
}

TEST(MultiCore, PerCoreResultsSumToSystemTotals) {
  const SimConfig base = base_config();
  const MultiCoreConfig mc = make_multicore(base, 2, make_llc(base), 4);
  auto s0 = source_for("cjpeg");
  auto s1 = source_for("streaming");
  const MultiCoreResult r =
      MultiCoreSystem(mc).run({s0.get(), s1.get()}, &aging().lut());

  ASSERT_EQ(r.cores.size(), 2u);
  std::uint64_t accesses = 0, stalls = 0, llc_accesses = 0;
  std::uint64_t l1_hits = 0;
  double energy = 0.0;
  for (const CoreResult& c : r.cores) {
    accesses += c.accesses;
    stalls += c.stall_cycles;
    llc_accesses += c.llc_stats.accesses;
    ASSERT_EQ(c.level_stats.size(), 1u);
    l1_hits += c.level_stats[0].hits;
    EXPECT_GT(c.energy.partitioned.total_pj(), 0.0) << c.workload;
    energy += c.energy.partitioned.total_pj();
  }
  EXPECT_EQ(accesses, r.system.accesses);
  EXPECT_EQ(stalls, r.system.stall_cycles);
  EXPECT_EQ(l1_hits, r.system.cache_stats.hits);
  // Every LLC access happens inside some core's routed access.
  EXPECT_EQ(llc_accesses, r.system.level_stats.back().accesses);
  // The LLC report is split by access share, so core energies sum back.
  EXPECT_NEAR(energy, r.system.energy.partitioned.total_pj(),
              1e-6 * r.system.energy.partitioned.total_pj());
}

/// Runs `mc` on the engine and on a hand replay over test-owned caches
/// (`traces[k]` is core k's stream) and expects them to agree unit by
/// unit, in total cycles, and in each core's slice of the LLC's traffic,
/// which the replay takes as the LLC's stats delta around each routed
/// access.  Needs static indexing and no contention: no update fires and
/// no resource stalls.  Returns the LLC's stats, so callers can check
/// what the run exercised.
CacheStats expect_matches_hand_replay(const MultiCoreConfig& mc,
                                      const std::vector<Trace>& traces) {
  std::vector<Trace> streams = traces;  // the engine's, with own cursors
  std::vector<TraceSource*> views;
  for (Trace& stream : streams) views.push_back(&stream);
  const MultiCoreResult engine = MultiCoreSystem(mc).run(views);

  TimingModel clock;
  std::vector<std::unique_ptr<ManagedCache>> caches;
  std::vector<std::vector<RoutedLevel>> routes(traces.size());
  for (std::size_t k = 0; k < traces.size(); ++k)
    for (const LevelConfig& level : mc.cores[k].levels) {
      caches.push_back(make_managed_cache(level.topology, &clock));
      routes[k].push_back({caches.back().get(), level.inclusion});
    }
  caches.push_back(make_managed_cache(mc.llc.topology, &clock));
  for (std::vector<RoutedLevel>& route : routes)
    route.push_back({caches.back().get(), mc.llc.inclusion});

  const ManagedCache& llc = *caches.back();
  std::vector<CacheStats> llc_share(traces.size());
  std::vector<std::size_t> pos(traces.size(), 0);
  std::size_t live = 0;
  for (const Trace& trace : traces) live += trace.empty() ? 0 : 1;
  std::uint64_t accesses = 0;
  while (live > 0) {
    for (std::size_t k = 0; k < traces.size(); ++k) {
      for (std::uint64_t slot = 0;
           pos[k] < traces[k].size() && slot < mc.cores[k].ipc_weight;
           ++slot) {
        const MemAccess& a = traces[k].accesses()[pos[k]++];
        if (pos[k] == traces[k].size()) --live;
        const CacheStats before = llc.stats();
        const AccessOutcome out =
            route_access(routes[k].data(), routes[k].size(),
                         a.address + k * mc.address_stride,
                         a.kind == AccessKind::kWrite);
        const CacheStats& after = llc.stats();
        llc_share[k].accesses += after.accesses - before.accesses;
        llc_share[k].hits += after.hits - before.hits;
        llc_share[k].misses += after.misses - before.misses;
        llc_share[k].writebacks += after.writebacks - before.writebacks;
        clock.on_access(out.stall_cycles);
        ++accesses;
      }
    }
  }
  for (auto& cache : caches) cache->finish();

  const SimResult& r = engine.system;
  EXPECT_EQ(r.accesses, accesses);
  EXPECT_EQ(r.total_cycles, clock.total_cycles());
  // The engine's unit order is depth-major: every core's L1, every
  // core's L2, ..., the LLC.
  std::vector<std::pair<const ManagedCache*, std::uint64_t>> units;
  for (std::size_t d = 0; d + 1 < routes.front().size(); ++d)
    for (const std::vector<RoutedLevel>& route : routes)
      for (std::uint64_t u = 0; u < route[d].cache->num_units(); ++u)
        units.emplace_back(route[d].cache, u);
  for (std::uint64_t u = 0; u < llc.num_units(); ++u)
    units.emplace_back(&llc, u);
  EXPECT_EQ(r.units.size(), units.size());
  for (std::size_t i = 0; i < units.size() && i < r.units.size(); ++i) {
    const UnitActivity a = units[i].first->unit_activity(units[i].second);
    EXPECT_EQ(r.units[i].accesses, a.accesses) << "unit " << i;
    EXPECT_EQ(r.units[i].sleep_cycles, a.sleep_cycles) << "unit " << i;
    EXPECT_EQ(r.units[i].sleep_episodes, a.sleep_episodes) << "unit " << i;
    EXPECT_EQ(r.units[i].gated_episodes, a.gated_episodes) << "unit " << i;
    EXPECT_EQ(r.units[i].sleep_residency,
              units[i].first->unit_residency(units[i].second))
        << "unit " << i;
  }
  // Each core's slice of the shared LLC, and the slices cover it.
  EXPECT_EQ(engine.cores.size(), traces.size());
  CacheStats covered;
  for (std::size_t k = 0; k < traces.size() && k < engine.cores.size();
       ++k) {
    const CacheStats& got = engine.cores[k].llc_stats;
    EXPECT_EQ(got.accesses, llc_share[k].accesses) << "core " << k;
    EXPECT_EQ(got.hits, llc_share[k].hits) << "core " << k;
    EXPECT_EQ(got.misses, llc_share[k].misses) << "core " << k;
    EXPECT_EQ(got.writebacks, llc_share[k].writebacks) << "core " << k;
    EXPECT_GT(got.accesses, 0u) << "core " << k;
    covered.accesses += llc_share[k].accesses;
    covered.writebacks += llc_share[k].writebacks;
  }
  EXPECT_EQ(covered.accesses, llc.stats().accesses);
  EXPECT_EQ(covered.writebacks, llc.stats().writebacks);
  // Stalls happened, and so did both kinds of L1 event.
  EXPECT_GT(r.stall_cycles, 0u);
  EXPECT_GT(r.level_stats.front().hits, 0u);
  EXPECT_GT(r.level_stats.front().misses, 0u);
  return llc.stats();
}

Trace materialize(const WorkloadSpec& spec, std::uint64_t accesses) {
  SyntheticTraceSource source(spec, accesses);
  return Trace::materialize(source);
}

TEST(MultiCore, MatchesAHandReplayOnOneClock) {
  // Two cores at ipc weights 2 and 1, each an L1 (hit 1, miss 6, gated
  // wake 3) over a private L2, sharing an LLC, all statically indexed.
  // The engine must equal a replay that routes each access through
  // test-owned caches in weighted round-robin order and moves time by
  // hand — 1 + stall per access, the other core's levels idle.
  // Unequal lengths: core 0 drops out of the rotation first.
  SimConfig base = paper_config(8192, 16, 4);
  base.indexing = IndexingKind::kStatic;
  base.latency.hit_cycles = 1;
  base.latency.miss_cycles = 6;
  base.latency.gated_wake_cycles = 3;

  // MediaBench streams over a 32kB L2 and a 64kB LLC: the L1s miss
  // only on first touch.
  SimConfig roomy = base;
  roomy.lower_levels.push_back(base.make_level(32 * 1024));
  MultiCoreConfig mc = make_multicore(roomy, 2, base.make_level(64 * 1024));
  mc.cores[0].ipc_weight = 2;
  mc.cores[1].ipc_weight = 1;
  expect_matches_hand_replay(
      mc, {materialize(make_mediabench_workload("cjpeg"), 12'000),
           materialize(make_mediabench_workload("dijkstra"), 30'000)});

  // Footprints past every level (48kB uniform, 64kB hotspot, 30% and
  // 25% writes) over a 16kB L2 and a 32kB LLC: the LLC both hits and
  // misses, and sheds dirty victims, so every field of each core's
  // slice is exercised.
  SimConfig tight = base;
  tight.lower_levels.push_back(base.make_level(16 * 1024));
  mc = make_multicore(tight, 2, base.make_level(32 * 1024));
  mc.cores[0].ipc_weight = 2;
  mc.cores[1].ipc_weight = 1;
  const CacheStats llc = expect_matches_hand_replay(
      mc, {materialize(make_uniform_workload(48 * 1024), 15'000),
           materialize(make_hotspot_workload(64 * 1024), 25'000)});
  EXPECT_GT(llc.hits, 0u);
  EXPECT_GT(llc.misses, 0u);
  EXPECT_GT(llc.writebacks, 0u);
}

TEST(MultiCore, PartitioningChangesTheVictimsLLCTraffic) {
  const SimConfig base = base_config();
  const LevelConfig llc = make_llc(base);
  CacheStats victim[2];
  int i = 0;
  for (const std::uint64_t wpc : {std::uint64_t{0}, std::uint64_t{4}}) {
    auto s0 = source_for("cjpeg");
    auto s1 = source_for("streaming");
    const MultiCoreResult r = MultiCoreSystem(make_multicore(base, 2, llc, wpc))
                                  .run({s0.get(), s1.get()});
    victim[i++] = r.cores[0].llc_stats;
  }
  // Fencing the streaming aggressor into its own ways must change what
  // the victim sees at the LLC.
  EXPECT_TRUE(victim[0].hits != victim[1].hits ||
              victim[0].misses != victim[1].misses);
}

}  // namespace
}  // namespace pcal
