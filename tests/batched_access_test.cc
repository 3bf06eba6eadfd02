// Batched-vs-scalar equivalence: ManagedCache::access_batch and the
// Simulator's batched driver loop must reproduce the scalar access()
// path bit for bit — same outcomes, same SimResult, same per-unit
// activity and idle sums, same timeline artifact — for every backend,
// granularity and power policy, and access_batch for any batch size.
// This is the contract that lets the batched hot path be the default:
// it is purely a throughput optimization, never a semantic fork.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/timeline.h"
#include "core/managed_cache.h"
#include "core/simulator.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

// The access_batch sizes the cache-level cases interleave: degenerate
// (1), odd and chunk-straddling (7), 64, and larger than the engine's
// 256-access chunk (4096).
const std::uint64_t kBatchSizes[] = {1, 7, 64, 4096};

SimConfig base_config(Granularity g, PowerPolicy policy,
                      std::uint64_t drowsy_window) {
  SimConfig cfg;
  cfg.granularity = g;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.cache.ways = (g == Granularity::kWay) ? 4 : 2;
  cfg.partition.num_banks = 4;
  cfg.indexing = IndexingKind::kProbing;
  cfg.policy = policy;
  cfg.drowsy_window_cycles = drowsy_window;
  cfg.reindex_updates = 8;
  // Nonzero event costs so stalls flow through both loops (folded into
  // the batched loop's serving cycle, added to the clock by the scalar
  // driver).
  cfg.latency.hit_cycles = 1;
  cfg.latency.miss_cycles = 6;
  cfg.latency.drowsy_wake_cycles = 2;
  cfg.latency.gated_wake_cycles = 4;
  return cfg;
}

struct RunArtifacts {
  SimResult result;
  std::string timeline_json;
};

RunArtifacts run_once(const SimConfig& cfg, std::uint64_t accesses,
                      bool scalar) {
  SimConfig run_cfg = cfg;
  run_cfg.force_scalar_loop = scalar;
  SyntheticTraceSource source(make_hotspot_workload(32 * 1024), accesses);
  api::TimelineRecorder recorder;
  const Simulator sim(run_cfg);
  RunArtifacts art;
  art.result = sim.run(source, nullptr, recorder.observer());
  std::ostringstream os;
  recorder.write_json(os);
  art.timeline_json = os.str();
  return art;
}

void expect_same_result(const SimResult& a, const SimResult& b) {
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
  EXPECT_EQ(a.cache_stats.flushed_dirty, b.cache_stats.flushed_dirty);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].accesses, b.units[u].accesses) << "unit " << u;
    EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles)
        << "unit " << u;
    EXPECT_EQ(a.units[u].sleep_episodes, b.units[u].sleep_episodes)
        << "unit " << u;
    EXPECT_EQ(a.units[u].drowsy_cycles, b.units[u].drowsy_cycles)
        << "unit " << u;
    EXPECT_EQ(a.units[u].gated_episodes, b.units[u].gated_episodes)
        << "unit " << u;
    // Identical inputs through identical arithmetic: doubles must match
    // exactly, not approximately.
    EXPECT_EQ(a.units[u].sleep_residency, b.units[u].sleep_residency)
        << "unit " << u;
    EXPECT_EQ(a.units[u].useful_idleness_count,
              b.units[u].useful_idleness_count)
        << "unit " << u;
  }
  EXPECT_EQ(a.energy.saving(), b.energy.saving());
}

struct Variant {
  Granularity granularity;
  PowerPolicy policy;
  std::uint64_t drowsy_window;
  const char* label;
};

const Variant kVariants[] = {
    {Granularity::kMonolithic, PowerPolicy::kGated, 0, "mono/gated"},
    {Granularity::kBank, PowerPolicy::kGated, 0, "bank/gated"},
    {Granularity::kWay, PowerPolicy::kGated, 0, "way/gated"},
    {Granularity::kLine, PowerPolicy::kGated, 0, "line/gated"},
    {Granularity::kBank, PowerPolicy::kDrowsyHybrid, 48, "bank/drowsy"},
    {Granularity::kWay, PowerPolicy::kDrowsyHybrid, 48, "way/drowsy"},
    {Granularity::kLine, PowerPolicy::kDrowsyHybrid, 48, "line/drowsy"},
};

TEST(BatchedSimulatorEquivalence, AllBackends) {
  const std::uint64_t kAccesses = 60000;
  for (const Variant& v : kVariants) {
    const SimConfig cfg =
        base_config(v.granularity, v.policy, v.drowsy_window);
    const RunArtifacts scalar = run_once(cfg, kAccesses, /*scalar=*/true);
    const RunArtifacts batched = run_once(cfg, kAccesses, /*scalar=*/false);
    SCOPED_TRACE(v.label);
    expect_same_result(scalar.result, batched.result);
    // The timeline artifact is byte-identical: same boundaries, same
    // censuses, same deltas.
    EXPECT_EQ(scalar.timeline_json, batched.timeline_json);
  }
}

TEST(BatchedSimulatorEquivalence, NoUpdatesObserverCadence) {
  // No re-indexing updates: boundaries come from the observer-only
  // cadence, which the batched driver must still split at exactly.
  for (const Granularity g :
       {Granularity::kMonolithic, Granularity::kBank, Granularity::kLine}) {
    SimConfig cfg = base_config(g, PowerPolicy::kGated, 0);
    cfg.indexing = IndexingKind::kStatic;
    cfg.reindex_updates = 0;
    const RunArtifacts scalar = run_once(cfg, 40000, true);
    const RunArtifacts batched = run_once(cfg, 40000, false);
    expect_same_result(scalar.result, batched.result);
    EXPECT_EQ(scalar.timeline_json, batched.timeline_json);
  }
}

TEST(BatchedSimulatorEquivalence, HierarchyTakesDefaultBatchPath) {
  // A two-level stack routes one access at a time either way —
  // force_scalar_loop must not reach its results.
  SimConfig cfg = base_config(Granularity::kBank, PowerPolicy::kGated, 0);
  cfg = two_level_variant(cfg, 32 * 1024);
  const RunArtifacts scalar = run_once(cfg, 40000, true);
  const RunArtifacts batched = run_once(cfg, 40000, false);
  expect_same_result(scalar.result, batched.result);
  EXPECT_EQ(scalar.timeline_json, batched.timeline_json);
}

// ---- cache-level: raw access_batch vs the per-access loop ----

CacheTopology backend_topology(Granularity g, PowerPolicy policy,
                               std::uint64_t drowsy_window) {
  CacheTopology topo;
  topo.granularity = g;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.cache.ways = (g == Granularity::kWay) ? 4 : 2;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  topo.policy = policy;
  topo.drowsy_window_cycles = drowsy_window;
  topo.latency.hit_cycles = 1;
  topo.latency.miss_cycles = 5;
  topo.latency.drowsy_wake_cycles = 2;
  topo.latency.gated_wake_cycles = 7;
  return topo;
}

void expect_same_outcome(const AccessOutcome& s, const AccessOutcome& b,
                         std::size_t i) {
  EXPECT_EQ(s.hit, b.hit) << "access " << i;
  EXPECT_EQ(s.writeback, b.writeback) << "access " << i;
  EXPECT_EQ(s.logical_unit, b.logical_unit) << "access " << i;
  EXPECT_EQ(s.physical_unit, b.physical_unit) << "access " << i;
  EXPECT_EQ(s.woke_unit, b.woke_unit) << "access " << i;
  EXPECT_EQ(s.wake, b.wake) << "access " << i;
  EXPECT_EQ(s.stall_cycles, b.stall_cycles) << "access " << i;
  EXPECT_EQ(s.evicted, b.evicted) << "access " << i;
  EXPECT_EQ(s.victim_address, b.victim_address) << "access " << i;
}

// Statistics and every unit's bookkeeping, after finish().
void expect_same_bookkeeping(const ManagedCache& a, const ManagedCache& b) {
  EXPECT_EQ(a.indexing_updates(), b.indexing_updates());
  EXPECT_EQ(a.stats().accesses, b.stats().accesses);
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().misses, b.stats().misses);
  EXPECT_EQ(a.stats().writebacks, b.stats().writebacks);
  EXPECT_EQ(a.stats().flushes, b.stats().flushes);
  EXPECT_EQ(a.stats().flushed_dirty, b.stats().flushed_dirty);
  ASSERT_EQ(a.num_units(), b.num_units());
  for (std::uint64_t u = 0; u < a.num_units(); ++u) {
    EXPECT_EQ(a.unit_residency(u), b.unit_residency(u)) << "unit " << u;
    const UnitActivity aa = a.unit_activity(u);
    const UnitActivity ba = b.unit_activity(u);
    EXPECT_EQ(aa.accesses, ba.accesses) << "unit " << u;
    EXPECT_EQ(aa.sleep_cycles, ba.sleep_cycles) << "unit " << u;
    EXPECT_EQ(aa.sleep_episodes, ba.sleep_episodes) << "unit " << u;
    EXPECT_EQ(aa.useful_idleness_count, ba.useful_idleness_count)
        << "unit " << u;
    EXPECT_EQ(aa.drowsy_cycles, ba.drowsy_cycles) << "unit " << u;
    EXPECT_EQ(aa.gated_episodes, ba.gated_episodes) << "unit " << u;
  }
}

TEST(AccessBatchEquivalence, OutcomesAndStatsMatchScalarLoop) {
  SyntheticTraceSource src(make_uniform_workload(48 * 1024), 20000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();

  for (const Variant& v : kVariants) {
    SCOPED_TRACE(v.label);
    const CacheTopology topo =
        backend_topology(v.granularity, v.policy, v.drowsy_window);
    TimingModel clock;  // the scalar replay's, advanced as a run does
    std::unique_ptr<ManagedCache> scalar = make_managed_cache(topo, &clock);
    std::unique_ptr<ManagedCache> batched = make_managed_cache(topo);

    std::vector<AccessOutcome> outs(4096);
    std::size_t pos = 0;
    std::size_t which = 0;
    while (pos < accesses.size()) {
      const std::uint64_t want = kBatchSizes[which++ % 4];
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, accesses.size() - pos));
      batched->access_batch(accesses.data() + pos, take, outs.data());
      for (std::size_t i = 0; i < take; ++i) {
        const MemAccess& a = accesses[pos + i];
        const AccessOutcome s =
            scalar->access(a.address, a.kind == AccessKind::kWrite);
        clock.on_access(s.stall_cycles);
        expect_same_outcome(s, outs[i], pos + i);
      }
      pos += take;
      EXPECT_EQ(scalar->cycles(), batched->cycles());
    }

    scalar->finish();
    batched->finish();
    expect_same_bookkeeping(*scalar, *batched);
  }
}

TEST(AccessBatchEquivalence, UpdateIndexingBetweenBatches) {
  // Interleave re-indexing updates with batches: the batched state
  // machine must pick up the rotated mapping exactly like the scalar
  // one (the driver guarantees updates never land mid-batch).
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), 12000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();

  for (const Granularity g :
       {Granularity::kBank, Granularity::kWay, Granularity::kLine}) {
    const CacheTopology topo =
        backend_topology(g, PowerPolicy::kGated, 0);
    TimingModel clock;  // the scalar replay's, advanced as a run does
    std::unique_ptr<ManagedCache> scalar = make_managed_cache(topo, &clock);
    std::unique_ptr<ManagedCache> batched = make_managed_cache(topo);

    std::vector<AccessOutcome> outs(1024);
    const std::size_t kStride = 1000;
    std::size_t pos = 0;
    while (pos < accesses.size()) {
      const std::size_t take = std::min(kStride, accesses.size() - pos);
      batched->access_batch(accesses.data() + pos, take, outs.data());
      for (std::size_t i = 0; i < take; ++i) {
        const MemAccess& a = accesses[pos + i];
        const AccessOutcome s =
            scalar->access(a.address, a.kind == AccessKind::kWrite);
        clock.on_access(s.stall_cycles);
        expect_same_outcome(s, outs[i], pos + i);
      }
      pos += take;
      EXPECT_EQ(scalar->update_indexing(), batched->update_indexing());
    }
    EXPECT_EQ(scalar->cycles(), batched->cycles());
  }
}

TEST(AccessBatchEquivalence, NullOutcomeBufferChangesNothingElse) {
  // The run engine reads only access_batch's returned stall sum and
  // passes no outcome buffer.  Skipping the outcome writes must leave
  // the stall sums, the clock, the statistics and every unit's
  // bookkeeping exactly as a run that asked for outcomes — timed and
  // untimed, across re-indexing updates between batches.
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), 20000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();

  for (const bool timed : {true, false}) {
    for (const Variant& v : kVariants) {
      SCOPED_TRACE(std::string(v.label) + (timed ? " timed" : " untimed"));
      CacheTopology topo =
          backend_topology(v.granularity, v.policy, v.drowsy_window);
      if (!timed) topo.latency = LatencyParams{};
      std::unique_ptr<ManagedCache> with_out = make_managed_cache(topo);
      std::unique_ptr<ManagedCache> without = make_managed_cache(topo);

      std::vector<AccessOutcome> outs(4096);
      std::size_t pos = 0;
      std::size_t which = 0;
      while (pos < accesses.size()) {
        const std::uint64_t want = kBatchSizes[which++ % 4];
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(want, accesses.size() - pos));
        EXPECT_EQ(with_out->access_batch(accesses.data() + pos, take,
                                         outs.data()),
                  without->access_batch(accesses.data() + pos, take,
                                        nullptr))
            << "batch at " << pos;
        EXPECT_EQ(with_out->cycles(), without->cycles()) << "batch at " << pos;
        pos += take;
        if (which % 3 == 0) {
          EXPECT_EQ(with_out->update_indexing(), without->update_indexing());
        }
      }

      with_out->finish();
      without->finish();
      expect_same_bookkeeping(*with_out, *without);
    }
  }
}

TEST(SharedTagStore, EverySharerMatchesItsSoloCache) {
  // Caches of one geometry that share a tag store (as a lockstep group
  // does) must each see what they would alone: one tag pass per chunk
  // feeds every sharer's power pass, and each update flushes the store
  // once while every sharer advances its own f().  The sharers differ in
  // granularity, f(), power policy and latency.
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), 20000);
  const Trace trace = Trace::materialize(src);
  const std::vector<MemAccess>& accesses = trace.accesses();

  std::vector<CacheTopology> topos;
  for (const Variant& v : kVariants) {
    CacheTopology topo =
        backend_topology(v.granularity, v.policy, v.drowsy_window);
    topo.cache.ways = 2;
    topos.push_back(topo);
  }
  topos[1].indexing = IndexingKind::kScrambling;
  topos[1].latency = LatencyParams{};
  topos[3].partition.num_banks = 2;

  std::vector<std::unique_ptr<ManagedCache>> solo, shared;
  for (const CacheTopology& topo : topos) {
    solo.push_back(make_managed_cache(topo));
    shared.push_back(make_managed_cache(topo));
    if (shared.size() > 1) shared.back()->share_tags(*shared.front());
  }

  std::vector<TagOutcome> tags(256);
  std::vector<AccessOutcome> want(256), got(256);
  std::size_t chunk = 0;
  for (std::size_t pos = 0; pos < accesses.size(); pos += 256, ++chunk) {
    const std::size_t take = std::min<std::size_t>(256, accesses.size() - pos);
    shared.front()->tag_batch(accesses.data() + pos, take, tags.data());
    for (std::size_t c = 0; c < topos.size(); ++c) {
      SCOPED_TRACE(kVariants[c].label);
      EXPECT_EQ(shared[c]->power_batch(tags.data(), take, got.data()),
                solo[c]->access_batch(accesses.data() + pos, take,
                                      want.data()));
      for (std::size_t i = 0; i < take; ++i)
        expect_same_outcome(want[i], got[i], pos + i);
      EXPECT_EQ(shared[c]->cycles(), solo[c]->cycles());
    }
    if (chunk % 10 == 9) {
      EXPECT_EQ(shared.front()->update_indexing(),
                solo.front()->update_indexing());
      for (std::size_t c = 1; c < topos.size(); ++c) {
        shared[c]->rotate_indexing();
        solo[c]->update_indexing();
      }
    }
  }
  for (std::size_t c = 0; c < topos.size(); ++c) {
    SCOPED_TRACE(kVariants[c].label);
    solo[c]->finish();
    shared[c]->finish();
    expect_same_bookkeeping(*solo[c], *shared[c]);
  }
}

}  // namespace
}  // namespace pcal
