// Parity and factory tests for ManagedCache.
//
// Each unit map must reproduce an independent reference built in the test
// from the plain components — a CacheModel behind the identity map, or
// behind the paper's bank split or reference [7]'s full-index rotation
// through an f() written here from Fig. 3 — bit for bit, across
// re-indexing updates.  The factory is exercised over the full
// Granularity x IndexingKind matrix.
#include "core/managed_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bank/block_control.h"
#include "cache/cache.h"
#include "core/enum_strings.h"
#include "route_chain.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/lfsr.h"

namespace pcal {
namespace {

CacheTopology base_topology(Granularity g) {
  CacheTopology topo;
  topo.granularity = g;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.cache.ways = 1;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kProbing;
  topo.breakeven_cycles = 24;
  return topo;
}

Trace make_trace(std::uint64_t accesses) {
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), accesses);
  return Trace::materialize(src);
}

TEST(GranularityStrings, RoundTrip) {
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay})
    EXPECT_EQ(granularity_from_string(to_string(g)), g);
  EXPECT_THROW(granularity_from_string("banked"), ConfigError);
}

TEST(IndexingKindStrings, RoundTrip) {
  for (IndexingKind k : {IndexingKind::kStatic, IndexingKind::kProbing,
                         IndexingKind::kScrambling})
    EXPECT_EQ(indexing_kind_from_string(to_string(k)), k);
  EXPECT_THROW(indexing_kind_from_string("probe"), ConfigError);
}

TEST(PowerPolicyStrings, RoundTrip) {
  // to_string spells the hybrid "drowsy"; the parser must accept both
  // that short form and the enum's own "drowsy_hybrid" spelling, so
  // every to_string output round-trips.
  for (PowerPolicy p : {PowerPolicy::kGated, PowerPolicy::kDrowsyHybrid})
    EXPECT_EQ(power_policy_from_string(to_string(p)), p);
  EXPECT_EQ(power_policy_from_string("drowsy_hybrid"),
            PowerPolicy::kDrowsyHybrid);
  EXPECT_EQ(power_policy_from_string("drowsy"),
            PowerPolicy::kDrowsyHybrid);
  EXPECT_THROW(power_policy_from_string("drowsyhybrid"), ConfigError);
  EXPECT_THROW(power_policy_from_string("sleepy"), ConfigError);
}

TEST(InclusionPolicyStrings, RoundTrip) {
  for (InclusionPolicy p :
       {InclusionPolicy::kNonInclusive, InclusionPolicy::kInclusive,
        InclusionPolicy::kExclusive, InclusionPolicy::kVictim})
    EXPECT_EQ(inclusion_policy_from_string(to_string(p)), p);
  EXPECT_EQ(inclusion_policy_from_string("non-inclusive"),
            InclusionPolicy::kNonInclusive);
  EXPECT_THROW(inclusion_policy_from_string("mostly-inclusive"),
               ConfigError);
}

TEST(CacheTopology, UnitCounts) {
  EXPECT_EQ(base_topology(Granularity::kMonolithic).num_units(), 1u);
  EXPECT_EQ(base_topology(Granularity::kBank).num_units(), 4u);
  EXPECT_EQ(base_topology(Granularity::kLine).num_units(), 512u);
  EXPECT_EQ(base_topology(Granularity::kWay).num_units(), 4u);
  CacheTopology assoc = base_topology(Granularity::kWay);
  assoc.cache.ways = 4;
  EXPECT_EQ(assoc.num_units(), 16u);
}

TEST(CacheTopology, Describe) {
  EXPECT_EQ(base_topology(Granularity::kBank).describe(),
            "8kB/16B/DM M=4 probing");
  EXPECT_EQ(base_topology(Granularity::kMonolithic).describe(),
            "8kB/16B/DM M=1 probing");
  EXPECT_EQ(base_topology(Granularity::kLine).describe(),
            "8kB/16B/DM line-grain probing");
}

// kMonolithic must reproduce CacheModel::access_address exactly: same
// hit/miss/writeback stream, same stats.
TEST(BackendParity, MonolithicMatchesCacheModel) {
  const CacheTopology topo = base_topology(Granularity::kMonolithic);
  const Trace trace = make_trace(20'000);

  CacheModel reference(topo.cache);
  auto unified = make_managed_cache(topo);
  ManagedCache& mc = *unified;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool is_write = trace[i].kind == AccessKind::kWrite;
    const CacheAccessResult want =
        reference.access_address(trace[i].address, is_write);
    const AccessOutcome got = mc.access(trace[i].address, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.physical_unit, 0u);
  }
  mc.finish();
  EXPECT_EQ(mc.stats().hits, reference.stats().hits);
  EXPECT_EQ(mc.stats().misses, reference.stats().misses);
  EXPECT_EQ(mc.stats().writebacks, reference.stats().writebacks);
  EXPECT_EQ(mc.cycles(), trace.size());
  EXPECT_EQ(mc.num_units(), 1u);
}

/// A reference power-managed cache assembled from the plain components:
/// a tag store, one Block Control counter per unit, and a caller-supplied
/// set -> (physical set, unit) mapping.
struct Reference {
  CacheModel cache;
  BlockControl control;
  std::uint64_t cycle = 0;

  Reference(const CacheTopology& topo, std::uint64_t units)
      : cache(topo.cache),
        control(units, topo.breakeven_cycles, topo.gate_cycles()) {}

  AccessOutcome access(std::uint64_t address, bool is_write,
                       std::uint64_t physical_set, std::uint64_t logical,
                       std::uint64_t physical) {
    const CacheConfig& cc = cache.config();
    AccessOutcome out;
    out.logical_unit = logical;
    out.physical_unit = physical;
    out.woke_unit = control.is_sleeping(physical, cycle);
    const CacheAccessResult r =
        cache.access(cc.tag_of(address), physical_set, is_write);
    out.hit = r.hit;
    out.writeback = r.writeback;
    control.on_access(physical, cycle++);
    return out;
  }
};

void expect_same_units(const ManagedCache& mc, const Reference& ref) {
  ASSERT_EQ(mc.num_units(), ref.control.num_banks());
  for (std::uint64_t u = 0; u < mc.num_units(); ++u) {
    EXPECT_DOUBLE_EQ(mc.unit_residency(u),
                     ref.control.sleep_residency(u, ref.cycle));
    const UnitActivity a = mc.unit_activity(u);
    EXPECT_EQ(a.accesses, ref.control.accesses(u));
    EXPECT_EQ(a.sleep_cycles, ref.control.sleep_cycles(u));
    EXPECT_EQ(a.sleep_episodes, ref.control.sleep_episodes(u));
  }
}

/// Scrambling's LFSR width for a `bits`-bit pattern, as
/// indexing/index_rotation.h documents it: wider than the pattern, so its
/// low bits reach the identity pattern too.
unsigned scrambling_width(unsigned bits) {
  return std::min(24u, std::max(2u, bits) + 8u);
}

// kBank must reproduce the paper's decoder in front of a plain tag store,
// including across re-indexing updates.  The reference's f() is written
// here from Fig. 3, so it shares no code with the decoder: Probing maps
// logical bank l to (l + c) mod M after c updates, Scrambling to
// l XOR (LFSR state mod M), the LFSR stepped once per update.  Logical
// bank = set / lines-per-bank, physical set = f(logical) * lines-per-bank
// + set mod lines-per-bank.
TEST(BackendParity, BankMatchesDecoderReference) {
  const Trace trace = make_trace(20'000);
  for (IndexingKind kind :
       {IndexingKind::kProbing, IndexingKind::kScrambling}) {
    CacheTopology topo = base_topology(Granularity::kBank);
    topo.indexing = kind;
    const std::uint64_t banks = topo.partition.num_banks;
    Reference ref(topo, banks);
    GaloisLfsr lfsr(scrambling_width(topo.partition.bank_bits()),
                    topo.indexing_seed);
    std::uint64_t counter = 0, pattern = 0;
    const std::uint64_t lines = topo.partition.lines_per_bank(topo.cache);
    auto mc = make_managed_cache(topo);

    for (std::size_t i = 0; i < trace.size(); ++i) {
      const bool is_write = trace[i].kind == AccessKind::kWrite;
      const std::uint64_t set = topo.cache.set_index_of(trace[i].address);
      const std::uint64_t logical = set / lines;
      const std::uint64_t physical = kind == IndexingKind::kProbing
                                         ? (logical + counter) % banks
                                         : logical ^ pattern;
      const AccessOutcome want =
          ref.access(trace[i].address, is_write,
                     physical * lines + set % lines, logical, physical);
      const AccessOutcome got = mc->access(trace[i].address, is_write);
      ASSERT_EQ(got.hit, want.hit) << "access " << i;
      ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
      ASSERT_EQ(got.logical_unit, want.logical_unit) << "access " << i;
      ASSERT_EQ(got.physical_unit, want.physical_unit) << "access " << i;
      ASSERT_EQ(got.woke_unit, want.woke_unit) << "access " << i;
      if (i % 5'000 == 4'999) {
        ++counter;
        pattern = lfsr.step() % banks;
        EXPECT_EQ(mc->update_indexing(), ref.cache.flush());
      }
    }
    ref.control.finish(ref.cycle);
    mc->finish();
    EXPECT_EQ(mc->indexing_updates(), counter);
    EXPECT_EQ(mc->stats().hits, ref.cache.stats().hits);
    EXPECT_EQ(mc->stats().flushes, ref.cache.stats().flushes);
    expect_same_units(*mc, ref);
  }
}

// kLine must reproduce reference [7]'s full-index rotation in front of a
// plain tag store: probing adds an update counter to the whole index mod
// L, scrambling XORs in an LFSR pattern drawn at each update, from an
// LFSR of the same width rule as the bank decoder's over n index bits.
// The LFSR's low index bits stay zero for its first steps, so the run
// updates often enough to reach nonzero patterns.  The 2-set cache (n = 1)
// pins the rule's floor: its LFSR is 10 bits wide.
TEST(BackendParity, LineMatchesRotationReference) {
  const Trace trace = make_trace(20'000);
  for (std::uint64_t size : {8192u, 32u}) {
    for (IndexingKind kind :
         {IndexingKind::kProbing, IndexingKind::kScrambling}) {
      SCOPED_TRACE(std::to_string(size) + " B " + to_string(kind));
      CacheTopology topo = base_topology(Granularity::kLine);
      topo.cache.size_bytes = size;
      topo.indexing = kind;
      const std::uint64_t sets = topo.cache.num_sets();
      Reference ref(topo, sets);
      GaloisLfsr lfsr(scrambling_width(topo.cache.index_bits()),
                      topo.indexing_seed);
      std::uint64_t counter = 0, pattern = 0;
      bool scrambled = false;
      auto mc = make_managed_cache(topo);

      for (std::size_t i = 0; i < trace.size(); ++i) {
        const bool is_write = trace[i].kind == AccessKind::kWrite;
        const std::uint64_t logical =
            topo.cache.set_index_of(trace[i].address);
        const std::uint64_t physical = kind == IndexingKind::kProbing
                                           ? (logical + counter) % sets
                                           : logical ^ pattern;
        const AccessOutcome want = ref.access(trace[i].address, is_write,
                                              physical, logical, physical);
        const AccessOutcome got = mc->access(trace[i].address, is_write);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        ASSERT_EQ(got.logical_unit, want.logical_unit) << "access " << i;
        ASSERT_EQ(got.physical_unit, want.physical_unit) << "access " << i;
        ASSERT_EQ(got.woke_unit, want.woke_unit) << "access " << i;
        if (i % 1'000 == 999) {
          ++counter;
          pattern = lfsr.step() % sets;
          scrambled = scrambled || pattern != 0;
          EXPECT_EQ(mc->update_indexing(), ref.cache.flush());
        }
      }
      if (kind == IndexingKind::kScrambling) {
        EXPECT_TRUE(scrambled);
      }
      ref.control.finish(ref.cycle);
      mc->finish();
      EXPECT_EQ(mc->indexing_updates(), counter);
      EXPECT_EQ(mc->stats().hits, ref.cache.stats().hits);
      expect_same_units(*mc, ref);
    }
  }
}

// Every Granularity x IndexingKind combination constructs, runs, updates
// and reports consistently through the factory.
TEST(Factory, RoundTripAllCombinations) {
  const Trace trace = make_trace(4'000);
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay}) {
    for (IndexingKind k : {IndexingKind::kStatic, IndexingKind::kProbing,
                           IndexingKind::kScrambling}) {
      CacheTopology topo = base_topology(g);
      topo.indexing = k;
      auto cache = make_managed_cache(topo);
      ASSERT_NE(cache, nullptr);
      EXPECT_EQ(cache->num_units(), topo.num_units());

      for (std::size_t i = 0; i < trace.size(); ++i) {
        const AccessOutcome out = cache->access(
            trace[i].address, trace[i].kind == AccessKind::kWrite);
        ASSERT_LT(out.physical_unit, topo.num_units());
      }
      cache->update_indexing();
      EXPECT_EQ(cache->stats().flushes, 1u);
      cache->finish();

      EXPECT_EQ(cache->cycles(), trace.size());
      EXPECT_EQ(cache->stats().accesses, trace.size());
      std::uint64_t unit_accesses = 0;
      for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
        unit_accesses += cache->unit_activity(u).accesses;
        EXPECT_GE(cache->unit_residency(u), 0.0);
        EXPECT_LE(cache->unit_residency(u), 1.0);
      }
      EXPECT_EQ(unit_accesses, trace.size());
      EXPECT_LE(cache->min_residency(), cache->avg_residency() + 1e-12);
    }
  }
}

// ---- idle time on the clock, at every granularity ----
//
// Every granularity (the drowsy hybrid policy and a two-level routed
// chain included) must treat a zero-cycle advance of its clock as a
// no-op, reject an access after finish(), and turn an idle-only run into
// full sleep residency.

std::vector<CacheTopology> all_backend_topologies() {
  std::vector<CacheTopology> topos;
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kLine, Granularity::kWay})
    topos.push_back(base_topology(g));
  CacheTopology hybrid = base_topology(Granularity::kBank);
  hybrid.policy = PowerPolicy::kDrowsyHybrid;
  hybrid.drowsy_window_cycles = 40;
  topos.push_back(hybrid);
  return topos;
}

/// A two-level routed chain: L1 over a 32kB L2, both bank-grain.
RouteChain two_level_chain() {
  CacheTopology l2 = base_topology(Granularity::kBank);
  l2.cache.size_bytes = 32 * 1024;
  return RouteChain(
      {{base_topology(Granularity::kBank), InclusionPolicy::kNonInclusive},
       {l2, InclusionPolicy::kNonInclusive}});
}

TEST(IdleTime, ZeroCycleAdvanceIsANoOp) {
  for (const CacheTopology& topo : all_backend_topologies()) {
    TimingModel clock;
    auto cache = make_managed_cache(topo, &clock);
    cache->access(0x40, false);
    clock.on_access(0);
    const std::uint64_t before = cache->cycles();
    clock.on_batch(0, 0);
    EXPECT_EQ(cache->cycles(), before) << topo.describe();
  }
  RouteChain chain = two_level_chain();
  chain.access(0x40, false);
  chain.clock().on_batch(0, 0);
  for (std::size_t i = 0; i < chain.num_levels(); ++i)
    EXPECT_EQ(chain.level(i).cycles(), 1u) << "level " << i;
}

TEST(IdleTime, AccessRejectedAfterFinish) {
  for (const CacheTopology& topo : all_backend_topologies()) {
    auto cache = make_managed_cache(topo);
    cache->access(0x40, false);
    cache->finish();
    cache->finish();  // idempotent
    EXPECT_THROW(cache->access(0x40, false), Error) << topo.describe();
  }
  RouteChain chain = two_level_chain();
  chain.access(0x40, false);
  chain.finish();
  EXPECT_THROW(chain.access(0x40, false), Error);
}

TEST(IdleTime, ResidencyReadsTheCycleFinishClosedAt) {
  // A clock that moves after finish() changes no post-finish query.
  for (const CacheTopology& topo : all_backend_topologies()) {
    TimingModel clock;
    auto cache = make_managed_cache(topo, &clock);
    cache->access(0x40, false);
    clock.on_batch(1, 500);
    cache->finish();
    const double residency = cache->unit_residency(0);
    const double avg = cache->avg_residency();
    const UnitActivity before = cache->unit_activity(0);
    clock.on_batch(0, 10'000);
    EXPECT_EQ(cache->unit_residency(0), residency) << topo.describe();
    EXPECT_EQ(cache->avg_residency(), avg) << topo.describe();
    EXPECT_EQ(cache->unit_activity(0).sleep_cycles, before.sleep_cycles)
        << topo.describe();
  }
}

TEST(IdleTime, IdleOnlyRunSleepsFullyAtEveryGranularity) {
  constexpr std::uint64_t kIdle = 10'000;
  for (const CacheTopology& topo : all_backend_topologies()) {
    TimingModel clock;
    auto cache = make_managed_cache(topo, &clock);
    clock.on_batch(0, kIdle);
    cache->finish();
    EXPECT_EQ(cache->cycles(), kIdle);
    const double expected =
        static_cast<double>(kIdle - topo.breakeven_cycles) /
        static_cast<double>(kIdle);
    for (std::uint64_t u = 0; u < cache->num_units(); ++u) {
      EXPECT_DOUBLE_EQ(cache->unit_residency(u), expected)
          << topo.describe() << " unit " << u;
      const UnitActivity a = cache->unit_activity(u);
      EXPECT_EQ(a.accesses, 0u);
      EXPECT_EQ(a.sleep_cycles, kIdle - topo.breakeven_cycles);
      EXPECT_EQ(a.sleep_episodes, 1u);
      if (topo.drowsy_active()) {
        // One interval spanning the whole run: the drowsy share is the
        // window, the rest deepened into the gated state.
        EXPECT_EQ(a.drowsy_cycles, topo.drowsy_window_cycles);
        EXPECT_EQ(a.gated_episodes, 1u);
      }
    }
  }
  RouteChain chain = two_level_chain();
  chain.clock().on_batch(0, kIdle);
  chain.finish();
  const double expected = static_cast<double>(kIdle - 24) /
                          static_cast<double>(kIdle);
  for (std::size_t i = 0; i < chain.num_levels(); ++i)
    for (std::uint64_t u = 0; u < chain.level(i).num_units(); ++u)
      EXPECT_DOUBLE_EQ(chain.level(i).unit_residency(u), expected)
          << "level " << i << " unit " << u;
}

TEST(Factory, RejectsInvalidTopology) {
  CacheTopology topo = base_topology(Granularity::kBank);
  topo.partition.num_banks = 3;
  EXPECT_THROW(make_managed_cache(topo), ConfigError);
  topo = base_topology(Granularity::kLine);
  topo.breakeven_cycles = 0;
  EXPECT_THROW(make_managed_cache(topo), ConfigError);
}

}  // namespace
}  // namespace pcal
