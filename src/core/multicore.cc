#include "core/multicore.h"

#include <algorithm>
#include <cstddef>
#include <sstream>

#include "core/contention.h"
#include "core/enum_strings.h"
#include "power/unit_energy.h"
#include "util/error.h"

namespace pcal {
namespace {

/// Accesses fetched per TraceSource::next_batch call, and so the largest
/// chunk the batched loop hands to access_batch.  Results do not depend
/// on it: chunks split at every update and observer boundary.
constexpr std::size_t kBatchSize = 256;

/// Observer cadence for runs with no re-indexing updates.
constexpr std::uint64_t kDefaultObserverIntervals = 16;

void add_stats(CacheStats& into, const CacheStats& s) {
  into.accesses += s.accesses;
  into.hits += s.hits;
  into.misses += s.misses;
  into.writebacks += s.writebacks;
  into.flushes += s.flushes;
  into.flushed_dirty += s.flushed_dirty;
}

/// Accumulates `after - before` into `into` — the delta attribution of
/// one batched chunk's LLC traffic to the run's one core.
void add_delta(CacheStats& into, const CacheStats& before,
               const CacheStats& after) {
  into.accesses += after.accesses - before.accesses;
  into.hits += after.hits - before.hits;
  into.misses += after.misses - before.misses;
  into.writebacks += after.writebacks - before.writebacks;
  into.flushes += after.flushes - before.flushes;
  into.flushed_dirty += after.flushed_dirty - before.flushed_dirty;
}

/// The contention model's level shapes: every core's private stack
/// (core-major) with the shared LLC last — so LLC MSHRs, ports and fill
/// bandwidth are genuinely shared across cores while private resources
/// stay per core.
std::vector<ContentionLevelShape> system_contention_shapes(
    const MultiCoreConfig& config) {
  std::vector<ContentionLevelShape> shapes;
  shapes.reserve(config.cores.size() * config.cores.front().levels.size() +
                 1);
  for (const MultiCoreConfig::Core& core : config.cores)
    for (const LevelConfig& level : core.levels)
      shapes.push_back(contention_shape_of(level.topology));
  shapes.push_back(contention_shape_of(config.llc.topology));
  return shapes;
}

/// `report` scaled by `f` — how the shared LLC's energy is apportioned
/// to cores by their access share.
EnergyReport scale_report(const EnergyReport& report, double f) {
  EnergyReport out;
  out.partitioned.dynamic_pj = report.partitioned.dynamic_pj * f;
  out.partitioned.leakage_active_pj = report.partitioned.leakage_active_pj * f;
  out.partitioned.leakage_retention_pj =
      report.partitioned.leakage_retention_pj * f;
  out.partitioned.leakage_drowsy_pj = report.partitioned.leakage_drowsy_pj * f;
  out.partitioned.transition_pj = report.partitioned.transition_pj * f;
  out.baseline_pj = report.baseline_pj * f;
  return out;
}

}  // namespace

bool MultiCoreConfig::partitioned() const {
  for (const Core& core : cores)
    if (core.llc_way_mask != 0) return true;
  return false;
}

void MultiCoreConfig::validate() const {
  PCAL_CONFIG_CHECK(!cores.empty(),
                    "multi-core system needs at least one core");
  const std::size_t depth = cores.front().levels.size();
  PCAL_CONFIG_CHECK(depth < kMaxTraceLevels,
                    "at most " << kMaxTraceLevels - 1
                               << " private levels per core, got " << depth);
  for (std::size_t k = 0; k < cores.size(); ++k) {
    const Core& core = cores[k];
    PCAL_CONFIG_CHECK(core.levels.size() == depth,
                      "cores must share one private-level depth (stats and "
                      "energy aggregate per depth): core "
                          << k << " has " << core.levels.size()
                          << " levels, core 0 has " << depth);
    PCAL_CONFIG_CHECK(core.ipc_weight >= 1,
                      "core " << k << ": ipc_weight must be >= 1");
    for (const LevelConfig& level : core.levels) {
      PCAL_CONFIG_CHECK(level.enabled(),
                        "core " << k << " has a zero-size private level");
      level.topology.validate();
    }
  }
  PCAL_CONFIG_CHECK(llc.enabled(), "the shared LLC needs a nonzero size");
  llc.topology.validate();
  PCAL_CONFIG_CHECK(address_stride > 0, "address_stride must be nonzero");

  std::size_t masked = 0;
  for (const Core& core : cores) masked += core.llc_way_mask != 0 ? 1 : 0;
  if (masked == 0) return;
  PCAL_CONFIG_CHECK(masked == cores.size(),
                    "LLC way partitioning is all-or-none: "
                        << masked << " of " << cores.size()
                        << " cores carry a mask (an empty partition would "
                           "starve the unmasked cores' misses)");
  PCAL_CONFIG_CHECK(llc.topology.granularity != Granularity::kLine,
                    "per-line LLC management has no way-organized tag "
                    "store to partition");
  const std::uint64_t ways = llc.topology.cache.ways;
  PCAL_CONFIG_CHECK(ways <= 64, "way masks support at most 64 LLC ways");
  const std::uint64_t usable =
      ways >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << ways) - 1;
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < cores.size(); ++k) {
    const std::uint64_t mask = cores[k].llc_way_mask;
    PCAL_CONFIG_CHECK((mask & ~usable) == 0,
                      "core " << k << " way mask 0x" << std::hex << mask
                              << std::dec << " names ways beyond the LLC's "
                              << ways << "-way associativity");
    PCAL_CONFIG_CHECK((mask & seen) == 0,
                      "core " << k << " way mask 0x" << std::hex << mask
                              << std::dec
                              << " overlaps another core's partition");
    seen |= mask;
  }
}

std::string MultiCoreConfig::describe() const {
  HierarchyConfig priv{cores.front().levels};
  if (cores.size() == 1 && !partitioned()) {
    // One core is a single stream: the label of its level chain.
    priv.levels.push_back(llc);
    return priv.describe();
  }
  std::ostringstream os;
  os << cores.size() << "x[" << priv.describe() << "] | LLC";
  if (llc.inclusion != InclusionPolicy::kNonInclusive)
    os << "/" << to_string(llc.inclusion);
  os << " " << llc.topology.describe();
  if (partitioned()) {
    os << " part(";
    for (std::size_t k = 0; k < cores.size(); ++k)
      os << (k ? "," : "") << "0x" << std::hex << cores[k].llc_way_mask
         << std::dec;
    os << ")";
  }
  return os.str();
}

MultiCoreSystem::MultiCoreSystem(MultiCoreConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

/// Everything one run keeps between accesses: the run's clock, the
/// per-core runtime, the shared LLC, the contention model, the flush
/// plan, the boundary counters and the snapshot buffers.  step() is the
/// per-access body; feed_group() takes one fetched batch through a group
/// of batched one-core runs.  SystemRun::drive() feeds them, so one
/// stream can feed several runs in lockstep.
struct SystemRun::State {
  /// Per-core runtime state: the private backends plus the routing chain
  /// route_access walks — the private levels with the shared LLC
  /// appended — and the core's attribution counters.
  struct CoreRt {
    std::vector<std::unique_ptr<ManagedCache>> levels;
    std::vector<RoutedLevel> route;
    std::uint64_t offset = 0;
    std::uint64_t quantum = 0;  // the source's boundary_hint; 0 = none
    std::uint64_t accesses = 0;
    std::uint64_t stalls = 0;
    CacheStats llc_stats;
  };

  State(const MultiCoreConfig& config, const std::vector<TraceSource*>& sources,
        const AgingLut* lut, const IntervalObserver& observer,
        bool force_scalar_loop, std::vector<UnitEnergyModel> models);
  // Every level holds the address of `timing`.
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  bool shares_tags_with(const State& other) const;
  static void feed_group(const std::vector<State*>& group,
                         const MemAccess* batch, std::size_t n);
  void step(std::size_t k, const MemAccess& a);
  void on_boundary(bool flush_llc);
  void notify(std::uint64_t index, bool fired, bool final_snapshot);
  bool at_context_switch() const;
  MultiCoreResult finish();

  const MultiCoreConfig config;
  const std::vector<TraceSource*> sources;
  const AgingLut* const lut;
  const IntervalObserver observer;
  // One pricing model per level, in census order (level_energy_models).
  const std::vector<UnitEnergyModel> models;
  const std::size_t num_cores;
  const std::size_t depth;
  ContentionModel contention;
  // Loop choice: one core issuing straight into a single level, with no
  // resource to arbitrate per access, takes the batched loop
  // (feed_group()).
  const bool batched;
  // The run's one clock: every level below is built on it, and only
  // step() and feed_group() advance it.
  TimingModel timing;
  // step()'s level events of the access it is routing.
  LevelTrace trace;
  std::unique_ptr<ManagedCache> llc;
  const bool partitioned;
  std::vector<CoreRt> rt;
  std::uint64_t update_interval = 0;
  std::uint64_t interval = 0;  // boundary cadence (updates or observer)
  // The flush plan of one update: per core, which private levels flush.
  std::vector<std::vector<char>> flush;
  std::uint64_t since_boundary = 0;
  std::uint64_t boundary_index = 0;
  std::uint64_t updates_applied = 0;
  std::size_t mask_owner;  // core whose LLC way mask is installed
  // Snapshot buffers, reused across boundaries (observers must copy what
  // they keep).
  std::vector<UnitGroupStates> snap_groups;
  std::vector<UnitPowerState> snap_states;
};

SystemRun::State::State(const MultiCoreConfig& cfg,
                        const std::vector<TraceSource*>& srcs,
                        const AgingLut* aging, const IntervalObserver& obs,
                        bool force_scalar_loop,
                        std::vector<UnitEnergyModel> level_models)
    : config(cfg),
      sources(srcs),
      lut(aging),
      observer(obs),
      models(std::move(level_models)),
      num_cores(config.cores.size()),
      depth(config.cores.front().levels.size()),
      contention(system_contention_shapes(config)),
      batched(num_cores == 1 && depth == 0 && !contention.enabled() &&
              !force_scalar_loop),
      llc(make_managed_cache(config.llc.topology, &timing)),
      partitioned(config.partitioned()),
      rt(num_cores),
      mask_owner(num_cores) {
  PCAL_CONFIG_CHECK(sources.size() == num_cores,
                    "got " << sources.size() << " trace sources for "
                           << num_cores << " cores");
  PCAL_ASSERT_MSG(models.size() == num_cores * depth + 1,
                  models.size() << " pricing models for "
                                << num_cores * depth + 1 << " levels");
  for (TraceSource* source : sources)
    PCAL_CONFIG_CHECK(source != nullptr, "null trace source");
  if (partitioned)
    PCAL_CONFIG_CHECK(llc->set_alloc_way_mask(~std::uint64_t{0}),
                      "LLC topology '"
                          << config.llc.topology.describe()
                          << "' has no way-organized tag store; way "
                             "partitioning needs monolithic, bank or way "
                             "granularity");

  std::uint64_t total_hint = 0;
  bool all_hints = true;
  for (std::size_t k = 0; k < num_cores; ++k) {
    CoreRt& c = rt[k];
    TraceSource* source = sources[k];
    source->reset();
    c.offset = k * config.address_stride;
    c.quantum = source->boundary_hint().value_or(0);
    for (const LevelConfig& level : config.cores[k].levels) {
      c.levels.push_back(make_managed_cache(level.topology, &timing));
      c.route.push_back({c.levels.back().get(), level.inclusion});
    }
    c.route.push_back({llc.get(), config.llc.inclusion});
    const auto hint = source->size_hint();
    total_hint += hint.value_or(0);
    all_hints = all_hints && hint.has_value();
  }

  // Update cadence: the requested updates spread evenly over the summed
  // size hints of all sources.  Static indexing never rotates, so a run
  // with no rotating level fires no (pointless) flushes — the
  // conventional cache does not flush for aging.
  bool any_rotates = config.llc.topology.rotates();
  for (const MultiCoreConfig::Core& core : config.cores)
    for (const LevelConfig& level : core.levels)
      any_rotates = any_rotates || level.topology.rotates();
  if (any_rotates && config.reindex_updates > 0 && all_hints &&
      total_hint > config.reindex_updates)
    update_interval = total_hint / (config.reindex_updates + 1);
  // Context-switch alignment (the paper's zero-overhead piggybacking),
  // the single-stream rule: one core whose source has a natural boundary
  // — a multiprogrammed stream's quantum — gets the interval rounded
  // down to a whole number of quanta, so every flush lands exactly on a
  // context switch that flushes anyway.  Quanta longer than the interval
  // cannot be aligned to without starving the update budget; those stay
  // on the even spread.
  const std::uint64_t quantum = rt.front().quantum;
  if (num_cores == 1 && update_interval != 0 && quantum > 0 &&
      update_interval >= quantum)
    update_interval -= update_interval % quantum;
  interval = update_interval;
  if (interval == 0 && observer && all_hints)
    interval =
        std::max<std::uint64_t>(1, total_hint / kDefaultObserverIntervals);

  // The flush plan of one update: the signal enters every rotating level
  // (a non-rotating level has nothing to re-map and is not flushed); the
  // inclusive back-invalidation cascade climbs from the shared LLC into
  // each core's last private level, then upward within each private
  // stack.
  flush.resize(num_cores);
  for (std::size_t k = 0; k < num_cores; ++k) {
    const std::vector<LevelConfig>& levels = config.cores[k].levels;
    flush[k].resize(levels.size(), 0);
    for (std::size_t i = 0; i < levels.size(); ++i)
      flush[k][i] = levels[i].topology.rotates() ? 1 : 0;
    if (depth > 0 && config.llc.topology.rotates() &&
        config.llc.inclusion == InclusionPolicy::kInclusive)
      flush[k].back() = 1;
    for (std::size_t i = levels.size(); i-- > 1;)
      if (flush[k][i] && levels[i].inclusion == InclusionPolicy::kInclusive)
        flush[k][i - 1] = 1;
  }
}

// A boundary is a context switch when any core's multiprogrammed source
// sits exactly on one of its quantum boundaries.
bool SystemRun::State::at_context_switch() const {
  for (const CoreRt& c : rt)
    if (c.quantum > 0 && c.accesses > 0 && c.accesses % c.quantum == 0)
      return true;
  return false;
}

// The group table is one row per (depth, core) private level plus the
// shared LLC, in the depth-major unit order the result reports; one core
// reports every row with core == -1, the single-stream convention.
void SystemRun::State::notify(std::uint64_t index, bool fired,
                              bool final_snapshot) {
  snap_groups.clear();
  snap_states.clear();
  const auto census = [&](const ManagedCache& cache, int core,
                          std::uint64_t level) {
    UnitGroupStates g;
    g.core = core;
    g.level = level;
    g.first_unit = snap_states.size();
    g.units = cache.num_units();
    g.stats = cache.stats();
    for (std::uint64_t u = 0; u < g.units; ++u) {
      const UnitPowerState s = cache.unit_state(u);
      snap_states.push_back(s);
      if (s == UnitPowerState::kAwake)
        ++g.awake;
      else if (s == UnitPowerState::kDrowsy)
        ++g.drowsy;
      else
        ++g.gated;
    }
    snap_groups.push_back(g);
  };
  for (std::size_t d = 0; d < depth; ++d)
    for (std::size_t k = 0; k < num_cores; ++k)
      census(*rt[k].levels[d], num_cores == 1 ? -1 : static_cast<int>(k), d);
  census(*llc, -1, depth);

  IntervalSnapshot snap;
  snap.interval = index;
  snap.cycles = timing.total_cycles();
  snap.updates_applied = updates_applied;
  snap.fired_update = fired;
  snap.final_snapshot = final_snapshot;
  snap.context_switch = !final_snapshot && at_context_switch();
  snap.accesses = timing.accesses();
  snap.stall_cycles = timing.stall_cycles();
  snap.stats = &rt.front().route.front().cache->stats();
  snap.groups = &snap_groups;
  snap.unit_states = &snap_states;
  observer(snap);
}

// Everything that happens at an update/observer boundary, shared by both
// loops: fire the re-indexing update while budget remains, then hand the
// observer its snapshot.  `flush_llc` is false for a group member whose
// shared LLC store another member's update already flushed: it only
// advances its own f().
void SystemRun::State::on_boundary(bool flush_llc) {
  since_boundary = 0;
  ++boundary_index;
  bool fired = false;
  if (update_interval != 0 && updates_applied < config.reindex_updates) {
    for (std::size_t k = 0; k < num_cores; ++k)
      for (std::size_t i = 0; i < rt[k].levels.size(); ++i)
        if (flush[k][i]) rt[k].levels[i]->update_indexing();
    if (config.llc.topology.rotates()) {
      if (flush_llc)
        llc->update_indexing();
      else
        llc->rotate_indexing();
    }
    ++updates_applied;
    fired = true;
  }
  if (observer) notify(boundary_index, fired, false);
}

// Batched runs whose LLC tag stores must see identical histories: the
// same geometry, fed the same stream, flushed at the same accesses (the
// same update interval and budget), and split into chunks at the same
// boundaries (the same cadence).  The store reads no clock (cache/
// cache.h), so latencies, power policy, granularity and f() may differ.
bool SystemRun::State::shares_tags_with(const State& other) const {
  return config.llc.topology.cache == other.config.llc.topology.cache &&
         update_interval == other.update_interval &&
         config.reindex_updates == other.config.reindex_updates &&
         interval == other.interval;
}

// One fetched batch through a group of batched runs that share the first
// member's LLC tag store (a solo run is a group of one).  Chunks split
// exactly at boundaries, so updates and snapshots land on the same
// access positions as the per-access loop.  Each chunk takes one tag
// pass over the shared store and one power pass per member; at a
// boundary the first member's update flushes the store once, and every
// member advances its own f() and hands its observer the snapshot.  So
// every member's stats, residencies and snapshots equal its solo run's
// at every boundary (tests/batched_access_test.cc and the cohort tests
// of tests/sweep_test.cc pin both).  Only the returned stall sums are
// read, so no outcome is written.
void SystemRun::State::feed_group(const std::vector<State*>& group,
                                  const MemAccess* batch, std::size_t n) {
  State& lead = *group.front();
  TagOutcome tags[kBatchSize];
  for (std::size_t pos = 0; pos < n;) {
    std::size_t take = std::min(n - pos, kBatchSize);
    if (lead.interval != 0)
      take = std::min<std::uint64_t>(take,
                                     lead.interval - lead.since_boundary);
    const CacheStats llc_before = lead.llc->stats();
    lead.llc->tag_batch(batch + pos, take, tags);
    for (State* s : group) {
      CoreRt& c = s->rt.front();
      const std::uint64_t stalls =
          s->llc->power_batch(tags, take, /*out=*/nullptr);
      add_delta(c.llc_stats, llc_before, lead.llc->stats());
      s->timing.on_batch(take, stalls);
      c.accesses += take;
      c.stalls += stalls;
      s->since_boundary += take;
    }
    pos += take;
    if (lead.interval != 0 && lead.since_boundary >= lead.interval)
      for (State* s : group) s->on_boundary(/*flush_llc=*/s == &lead);
  }
}

void SystemRun::State::step(std::size_t k, const MemAccess& a) {
  CoreRt& c = rt[k];
  if (partitioned && mask_owner != k) {
    llc->set_alloc_way_mask(config.cores[k].llc_way_mask);
    mask_owner = k;
  }
  const AccessOutcome out =
      route_access(c.route.data(), c.route.size(), a.address + c.offset,
                   a.kind == AccessKind::kWrite, &trace);
  // The LLC is the chain's last level: if the walk reached it, its event
  // is this core's share of the LLC's tag-store traffic (an access, a
  // hit or a miss, and a writeback when it shed a dirty victim).
  if (trace.size == c.route.size()) {
    const LevelEvent& e = trace.events[depth];
    ++c.llc_stats.accesses;
    ++(e.hit ? c.llc_stats.hits : c.llc_stats.misses);
    if (e.writeback) ++c.llc_stats.writebacks;
  }
  std::uint64_t stall = out.stall_cycles;
  if (contention.enabled()) {
    // Replay the routed chain's level trace through the shared resource
    // model at the access's position on the stretched clock: private
    // events map to this core's slots, the last level to the shared LLC
    // slot.  Latency stalls land before resource arbitration (the fill
    // is in flight while the core stalls), and each event sees the
    // stalls charged so far.
    const std::uint64_t now = timing.total_cycles();
    for (std::size_t e = 0; e < trace.size; ++e) {
      const LevelEvent& le = trace.events[e];
      ContentionEvent ev;
      ev.level = le.level < depth ? k * depth + le.level : num_cores * depth;
      ev.unit = le.unit;
      ev.address = le.address;
      ev.miss = !le.hit;
      ev.writeback = le.writeback;
      stall += contention.on_event(ev, now + stall).total();
    }
  }
  // The access and its stall pass on the one clock: every level that
  // route_access did not reference, on this core or another, idles.
  timing.on_access(stall);
  ++c.accesses;
  c.stalls += stall;
  if (interval != 0 && ++since_boundary >= interval) on_boundary(true);
}

MultiCoreResult SystemRun::State::finish() {
  for (CoreRt& c : rt)
    for (auto& level : c.levels) level->finish();
  llc->finish();
  const std::uint64_t cycles = timing.total_cycles();

  // Depth-major unit order: every core's L1 units, then every core's
  // L2 units, ..., then the LLC's.
  struct UnitRef {
    const ManagedCache* cache;
    std::uint64_t local;
  };
  std::vector<UnitRef> unit_order;
  for (std::size_t d = 0; d < depth; ++d)
    for (std::size_t k = 0; k < num_cores; ++k)
      for (std::uint64_t u = 0; u < rt[k].levels[d]->num_units(); ++u)
        unit_order.push_back({rt[k].levels[d].get(), u});
  for (std::uint64_t u = 0; u < llc->num_units(); ++u)
    unit_order.push_back({llc.get(), u});

  MultiCoreResult result;
  SimResult& r = result.system;
  for (std::size_t k = 0; k < num_cores; ++k)
    r.workload += (k ? "+" : "") + sources[k]->name();
  const CacheTopology& l1 = depth > 0
                                ? config.cores.front().levels.front().topology
                                : config.llc.topology;
  r.config_label = config.describe();
  r.granularity = l1.granularity;
  r.policy = l1.policy;
  r.accesses = timing.accesses();
  r.total_cycles = cycles;
  r.stall_cycles = timing.stall_cycles();
  r.mshr_stall_cycles = contention.totals().mshr;
  r.port_stall_cycles = contention.totals().port;
  r.bw_stall_cycles = contention.totals().bw;
  r.breakeven_cycles = l1.breakeven_cycles;
  r.reindex_updates_applied = updates_applied;
  for (std::size_t d = 0; d < depth; ++d) {
    CacheStats agg;
    std::uint64_t units = 0;
    for (std::size_t k = 0; k < num_cores; ++k) {
      add_stats(agg, rt[k].levels[d]->stats());
      units += rt[k].levels[d]->num_units();
    }
    r.level_stats.push_back(agg);
    r.level_units.push_back(units);
  }
  r.level_stats.push_back(llc->stats());
  r.level_units.push_back(llc->num_units());
  // What "the CPU" sees: the sum of every core's L1 tag store.
  r.cache_stats = r.level_stats.front();

  const std::size_t num_units = unit_order.size();
  std::vector<UnitActivity> activity(num_units);
  std::vector<double> residency(num_units);
  r.units.resize(num_units);
  for (std::size_t u = 0; u < num_units; ++u) {
    const UnitRef& ref = unit_order[u];
    const UnitActivity a = ref.cache->unit_activity(ref.local);
    activity[u] = a;
    UnitResult& ur = r.units[u];
    ur.accesses = a.accesses;
    ur.sleep_cycles = a.sleep_cycles;
    ur.sleep_residency = ref.cache->unit_residency(ref.local);
    ur.useful_idleness_count = a.useful_idleness_count;
    ur.sleep_episodes = a.sleep_episodes;
    ur.drowsy_cycles = a.drowsy_cycles;
    ur.gated_episodes = a.gated_episodes;
    residency[u] = ur.sleep_residency;
  }

  // Per-(depth, core) slices priced with each level's model over the
  // stall-stretched clock, accumulated in census order (depth-outer /
  // core-inner, the LLC last).  The baseline is the never-sleeping
  // monolithic stack of the same levels.
  std::vector<EnergyReport> core_private(num_cores);
  std::size_t offset = 0;
  std::size_t level = 0;
  const auto price_slice = [&](std::uint64_t n) {
    const std::vector<UnitActivity> slice(
        activity.begin() + static_cast<std::ptrdiff_t>(offset),
        activity.begin() + static_cast<std::ptrdiff_t>(offset + n));
    offset += n;
    const EnergyReport report = price_unit_run(models[level++], slice, cycles);
    r.energy += report;
    return report;
  };
  for (std::size_t d = 0; d < depth; ++d)
    for (std::size_t k = 0; k < num_cores; ++k)
      core_private[k] += price_slice(rt[k].levels[d]->num_units());
  const EnergyReport llc_report = price_slice(llc->num_units());

  if (lut != nullptr) {
    const CacheLifetimeEvaluator evaluator(*lut);
    r.lifetime = evaluator.evaluate(residency);
    for (std::size_t u = 0; u < num_units; ++u)
      r.units[u].lifetime_years = r.lifetime->banks[u].lifetime_years;
  }

  if (observer) notify(0, false, true);

  std::uint64_t total_llc = 0;
  for (const CoreRt& c : rt) total_llc += c.llc_stats.accesses;
  for (std::size_t k = 0; k < num_cores; ++k) {
    const CoreRt& c = rt[k];
    CoreResult cr;
    cr.workload = sources[k]->name();
    cr.accesses = c.accesses;
    cr.stall_cycles = c.stalls;
    cr.llc_way_mask = config.cores[k].llc_way_mask;
    for (std::size_t d = 0; d < depth; ++d)
      cr.level_stats.push_back(c.levels[d]->stats());
    cr.llc_stats = c.llc_stats;
    cr.energy = core_private[k];
    const double share =
        total_llc > 0 ? static_cast<double>(c.llc_stats.accesses) /
                            static_cast<double>(total_llc)
                      : 1.0 / static_cast<double>(num_cores);
    cr.energy += scale_report(llc_report, share);
    double sum = 0.0;
    std::uint64_t n = 0;
    for (std::size_t d = 0; d < depth; ++d)
      for (std::uint64_t u = 0; u < c.levels[d]->num_units(); ++u) {
        sum += c.levels[d]->unit_residency(u);
        ++n;
      }
    cr.avg_residency = n > 0 ? sum / static_cast<double>(n) : 0.0;
    result.cores.push_back(std::move(cr));
  }
  return result;
}

SystemRun::SystemRun(std::unique_ptr<State> state) : state_(std::move(state)) {}
SystemRun::SystemRun(SystemRun&&) noexcept = default;
SystemRun::~SystemRun() = default;

void SystemRun::drive(const std::vector<SystemRun*>& runs) {
  PCAL_ASSERT_MSG(!runs.empty(), "SystemRun::drive needs a run");
  const std::vector<TraceSource*>& sources = runs.front()->state_->sources;
  for (const SystemRun* run : runs)
    PCAL_ASSERT_MSG(run->state_->sources == sources,
                    "lockstep runs must share their trace sources");

  if (sources.size() == 1) {
    // One stream: each fetched batch goes to every run in turn, so the
    // stream is produced once however many runs consume it.  Batched
    // runs whose LLC stores see identical histories form a group that
    // walks one store (feed_group); the others route access by access.
    std::vector<std::vector<State*>> groups;
    std::vector<State*> routed;
    for (SystemRun* run : runs) {
      State* s = run->state_.get();
      if (!s->batched) {
        routed.push_back(s);
        continue;
      }
      const auto group =
          std::find_if(groups.begin(), groups.end(),
                       [s](const std::vector<State*>& g) {
                         return s->shares_tags_with(*g.front());
                       });
      if (group == groups.end()) {
        groups.push_back({s});
      } else {
        s->llc->share_tags(*group->front()->llc);
        group->push_back(s);
      }
    }
    std::vector<MemAccess> batch(kBatchSize);
    while (const std::size_t n =
               sources.front()->next_batch(batch.data(), kBatchSize)) {
      for (const std::vector<State*>& group : groups)
        State::feed_group(group, batch.data(), n);
      for (State* s : routed)
        for (std::size_t i = 0; i < n; ++i) s->step(0, batch[i]);
    }
    return;
  }

  // Two or more cores: weighted round-robin over the cores' own streams
  // (core k takes ipc_weight consecutive accesses per round; a core
  // whose stream ends drops out of the rotation).
  PCAL_ASSERT_MSG(runs.size() == 1,
                  "only single-stream runs can share a stream");
  State& s = *runs.front()->state_;
  struct Cursor {
    std::vector<MemAccess> batch;
    std::size_t n = 0;
    std::size_t i = 0;
    bool done = false;
  };
  std::vector<Cursor> cursors(s.num_cores);
  for (Cursor& c : cursors) c.batch.resize(kBatchSize);
  std::size_t live = s.num_cores;
  while (live > 0) {
    for (std::size_t k = 0; k < s.num_cores; ++k) {
      Cursor& c = cursors[k];
      if (c.done) continue;
      const std::uint64_t weight = s.config.cores[k].ipc_weight;
      for (std::uint64_t slot = 0; slot < weight; ++slot) {
        if (c.i >= c.n) {
          c.n = sources[k]->next_batch(c.batch.data(), kBatchSize);
          c.i = 0;
          if (c.n == 0) {
            c.done = true;
            --live;
            break;
          }
        }
        s.step(k, c.batch[c.i++]);
      }
    }
  }
}

MultiCoreResult SystemRun::finish() { return state_->finish(); }

MultiCoreResult MultiCoreSystem::run(
    const std::vector<TraceSource*>& sources, const AgingLut* lut,
    const IntervalObserver& observer) const {
  SystemRun run =
      start(sources, lut, observer, false, level_energy_models(config_));
  SystemRun::drive({&run});
  return run.finish();
}

SystemRun MultiCoreSystem::start(const std::vector<TraceSource*>& sources,
                                 const AgingLut* lut,
                                 const IntervalObserver& observer,
                                 bool force_scalar_loop,
                                 std::vector<UnitEnergyModel> models) const {
  return SystemRun(std::make_unique<SystemRun::State>(
      config_, sources, lut, observer, force_scalar_loop, std::move(models)));
}

MultiCoreConfig one_core_system(const SimConfig& config) {
  const Simulator sim(config);  // validates; resolves the L1 breakeven
  std::vector<LevelConfig> chain{{config.topology(sim.breakeven_cycles()),
                                  InclusionPolicy::kNonInclusive}};
  for (const LevelConfig& level : config.enabled_lower_levels())
    chain.push_back(level);
  MultiCoreConfig mc;
  mc.llc = chain.back();
  chain.pop_back();
  mc.cores.push_back({std::move(chain)});
  mc.reindex_updates = config.reindex_updates;
  mc.tech = config.tech;
  mc.energy_params = config.energy_params;
  return mc;
}

std::vector<UnitEnergyModel> level_energy_models(
    const MultiCoreConfig& config) {
  std::vector<UnitEnergyModel> models;
  const std::size_t depth =
      config.cores.empty() ? 0 : config.cores.front().levels.size();
  for (std::size_t d = 0; d < depth; ++d)
    for (const MultiCoreConfig::Core& core : config.cores)
      models.emplace_back(config.energy_params, config.tech,
                          core.levels[d].topology);
  models.emplace_back(config.energy_params, config.tech, config.llc.topology);
  return models;
}

std::vector<UnitEnergyModel> level_energy_models(const SimConfig& config) {
  std::vector<UnitEnergyModel> models =
      level_energy_models(one_core_system(config));
  if (config.paper_priced()) models.front() = config.paper_energy_model();
  return models;
}

MultiCoreConfig make_multicore(const SimConfig& config,
                               std::size_t num_cores,
                               const LevelConfig& llc,
                               std::uint64_t ways_per_core) {
  PCAL_CONFIG_CHECK(num_cores > 0, "need at least one core");
  if (ways_per_core > 0)
    PCAL_CONFIG_CHECK(num_cores * ways_per_core <= 64,
                      "contiguous way partitions need cores * ways_per_core "
                      "<= 64 mask bits; got "
                          << num_cores << " * " << ways_per_core);
  // Every core's private stack is the config's whole chain.
  MultiCoreConfig mc = one_core_system(config);
  MultiCoreConfig::Core proto = mc.cores.front();
  proto.levels.push_back(mc.llc);
  mc.llc = llc;
  mc.cores.clear();
  for (std::size_t k = 0; k < num_cores; ++k) {
    MultiCoreConfig::Core core = proto;
    if (ways_per_core > 0)
      core.llc_way_mask = ((std::uint64_t{1} << ways_per_core) - 1)
                          << (k * ways_per_core);
    mc.cores.push_back(std::move(core));
  }
  return mc;
}

}  // namespace pcal
