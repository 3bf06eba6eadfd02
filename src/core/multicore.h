// The run engine: per-core private hierarchies over a shared LLC.
//
// The paper's deployment story is multi-programmed — re-indexing updates
// piggyback on flushes that "occur regularly in the system (e.g., on a
// context switch)" — and this engine models the system those streams
// actually run on: N cores, each with its own private cache stack (any
// depth, including none; each level a full CacheTopology built via
// make_managed_cache), all backed by ONE shared managed LLC, and every
// level reading the run's one clock.  It is the only run loop: a single-stream
// Simulator::run is the 1-core system of one_core_system() below.
//
// ## Data flow (one issued access)
//
//   core k's TraceSource --> [core k L1 .. Lp] --> shared LLC
//
// Each core consumes its own TraceSource; cores issue in weighted
// round-robin order (core k issues `ipc_weight` consecutive accesses per
// round, in deterministic core order — the per-core-IPC interleave).
// Core k's addresses are offset by k * address_stride so the streams
// occupy disjoint address ranges (core 0 is unshifted).  The access
// routes through the core's private levels and the appended LLC with
// route_access (core/hierarchy.h), which defines the miss/eviction-
// stream semantics, probe behavior and stall composition.  Then the
// run's clock advances by 1 + the access's stall.  Every level of every
// core and the LLC reads that one clock, so a level the access did not
// reference — another core's, or one below the first unreferenced
// level — idles through the access and its stall with no call, and
// leakage and residency stay exact.
//
// One core with no private levels, no finite resource anywhere and no
// forced scalar loop — a single-level Simulator run — is *batched*: it
// takes whole chunks, split exactly at update and observer boundaries,
// through its cache's tag pass and power pass (ManagedCache::tag_batch,
// power_batch); results are bit-identical to the per-access loop.
//
// ## Lockstep groups
//
// SystemRun::drive feeds one stream to several runs (a sweep cohort).
// Batched runs whose tag stores must see identical histories — the same
// CacheConfig, the same flush points (the same update interval and
// budget) and the same boundary cadence — form a *group* that shares one
// tag store: each chunk takes one tag pass, then every member's power
// pass over its outcomes; at an update boundary the store is flushed
// once, then every member advances its own f() and hands its observer
// the snapshot.  The store reads no clock, so members may differ in
// granularity, f(), power policy and latency: their clocks diverge, and
// each member's stats, snapshots and results equal its solo run's at
// every boundary.  A solo batched run is a group of one; routed runs
// (hierarchies, multi-core, contention, the forced scalar loop) keep
// calling access() per access.
//
// ## Way partitioning (QoS)
//
// The shared LLC optionally gives each core an allocation way mask
// (ManagedCache::set_alloc_way_mask): core k's misses may only victimize
// its own ways, while hits are served from any way.  This isolates a
// well-behaved core's LLC share from a streaming noisy neighbour —
// examples/multicore.sweep measures exactly that effect, and
// multicore_test pins it.  Masks must be
// nonzero, pairwise disjoint, within the LLC's associativity, and either
// all cores have one or none do (all-zero = fully shared).
//
// ## One core is the single-stream run (by construction)
//
// Simulator::run builds its system with one_core_system() and returns
// the engine's `system` result.  Two rules make a 1-core system behave
// as a single stream: the update interval is rounded down to a whole
// number of the source's quanta (TraceSource::boundary_hint — flushes
// land on context switches), and the snapshot census reports every
// group with core == -1.  With two or more cores the even spread is
// computed over the summed size hints and private groups carry their
// core index.
//
// ## Attribution
//
// MultiCoreResult carries the system-wide SimResult (units ordered
// depth-major: every core's L1 units, then every core's L2 units, ...,
// then the LLC's) plus one CoreResult per core: its accesses, stalls,
// private-level stats, its slice of the LLC's tag-store traffic (counted
// from the LLC's event of each access it routed), and an energy figure =
// the core's own private levels plus the LLC report scaled by the core's
// share of LLC accesses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/simulator.h"

namespace pcal {

/// Static description of an N-core system.
struct MultiCoreConfig {
  struct Core {
    /// The core's private stack, L1 first (each a full CacheTopology +
    /// the inclusion policy tying it to the level above).  May be empty:
    /// the core then issues straight into the shared LLC.
    std::vector<LevelConfig> levels;
    /// LLC allocation way mask for this core; 0 = unrestricted.  If any
    /// core sets one, all cores must, and masks must be disjoint.
    std::uint64_t llc_way_mask = 0;
    /// Accesses this core issues per round-robin round (>= 1).
    std::uint64_t ipc_weight = 1;
  };

  std::vector<Core> cores;
  /// The shared last-level cache; its inclusion policy relates it to the
  /// private level above it, exactly as in a HierarchyConfig.
  LevelConfig llc;
  /// Re-indexing updates spread evenly over the run (0 disables).
  std::uint64_t reindex_updates = 16;
  /// Offset between consecutive cores' address spaces (core k adds
  /// k * address_stride to every address it issues).  Core 0 is
  /// unshifted.
  std::uint64_t address_stride = std::uint64_t{1} << 20;
  TechnologyParams tech = TechnologyParams::st45();
  EnergyParams energy_params = EnergyParams::st45();

  /// True iff any core carries an LLC way mask.
  bool partitioned() const;

  /// Structural validation: >= 1 core, homogeneous private depth, every
  /// level enabled and valid, and the way-mask rules above.  Throws
  /// ConfigError.
  void validate() const;

  /// Label for reports.  One unpartitioned core degenerates to the
  /// equivalent HierarchyConfig::describe(); otherwise
  /// "Nx[<private stack>] | LLC <topology>" with a partition suffix.
  std::string describe() const;
};

/// Per-core slice of a multi-core run.
struct CoreResult {
  std::string workload;
  std::uint64_t accesses = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t llc_way_mask = 0;
  /// Tag-store stats of the core's private levels, L1 first.
  std::vector<CacheStats> level_stats;
  /// The core's slice of the shared LLC's tag-store traffic: the LLC's
  /// event of each access it routed (on the batched single-level loop,
  /// the stats delta of each chunk).  Update flushes are attributed to
  /// no core.
  CacheStats llc_stats;
  /// The core's private-level energy plus the LLC report scaled by its
  /// share of LLC accesses (even split if the LLC saw none).
  EnergyReport energy;
  /// Mean sleep residency over the core's private units.
  double avg_residency = 0.0;

  double l1_hit_rate() const {
    return level_stats.empty() ? 0.0 : level_stats.front().hit_rate();
  }
  double llc_hit_rate() const { return llc_stats.hit_rate(); }
};

struct MultiCoreResult {
  /// System-wide observables in the single-stream shape (units
  /// depth-major as documented above; workload is the '+'-joined source
  /// names).  Every level is priced once, by its level_energy_models()
  /// entry.
  SimResult system;
  std::vector<CoreResult> cores;
};

class SystemRun;

class MultiCoreSystem {
 public:
  /// Validates the config (throws ConfigError).
  explicit MultiCoreSystem(MultiCoreConfig config);

  /// Runs every source to exhaustion (cores whose stream ends early drop
  /// out of the rotation; the rest keep issuing).  `sources` must hold
  /// one non-null source per configured core.  The observer sees the
  /// whole system's census at every update boundary (for runs without
  /// updates: at a default 16-interval cadence when every source's size
  /// is known) and once after the run completes.
  MultiCoreResult run(const std::vector<TraceSource*>& sources,
                      const AgingLut* lut = nullptr,
                      const IntervalObserver& observer = {}) const;

  const MultiCoreConfig& config() const { return config_; }

 private:
  // Simulator::start forwards SimConfig::force_scalar_loop, the switch
  // of the batched single-level loop, and the config's per-level
  // pricing models.
  friend class Simulator;
  /// Sets up a run (resets the sources; throws ConfigError when they do
  /// not match the cores) without issuing any access.  `models` prices
  /// the levels, in level_energy_models() order.
  SystemRun start(const std::vector<TraceSource*>& sources,
                  const AgingLut* lut, const IntervalObserver& observer,
                  bool force_scalar_loop,
                  std::vector<UnitEnergyModel> models) const;

  MultiCoreConfig config_;
};

/// One MultiCoreSystem run in flight: the per-core runtime (private
/// backends, routing chains, attribution counters), the shared LLC, the
/// timing and contention models, the flush plan, the boundary counters
/// and the snapshot buffers.  MultiCoreSystem::run and Simulator::run
/// are start, drive(), finish(); a lockstep cohort (core/sweep.h) holds
/// one run per member and drives them together.  The run borrows its
/// sources, lut and observer's captures: they must outlive finish().
class SystemRun {
 public:
  SystemRun(SystemRun&&) noexcept;
  ~SystemRun();

  /// The fetch loop: drains the runs' sources through every run.  All
  /// runs must share the same sources.  With one source (single-core
  /// runs) each fetched batch goes to every run in turn, so K runs cost
  /// one pass over the stream, batched runs of one geometry share one
  /// tag walk (the lockstep groups above), and each result is
  /// bit-identical to driving that run alone.  With one source per core
  /// (two or more cores) `runs` must hold exactly one run, whose cores
  /// take turns in weighted round-robin order.  Exceptions from a source, a backend or
  /// an observer propagate; the runs are then unusable.
  static void drive(const std::vector<SystemRun*>& runs);

  /// Finishes every level and returns the priced result; the observer
  /// sees its final snapshot here.  Call once, after drive().
  MultiCoreResult finish();

 private:
  friend class MultiCoreSystem;
  struct State;
  explicit SystemRun(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

/// The 1-core system of a single-stream config — what Simulator::run
/// executes: L1 (with its resolved breakeven) and every enabled lower
/// level but the last are the core's private levels, and the last level
/// is the "LLC" (L1 itself for a single-level config, leaving no private
/// level).  Validates `config`.
MultiCoreConfig one_core_system(const SimConfig& config);

/// The energy model that prices each level of `config`, in census
/// order: every core's level d, depth by depth, then the shared LLC.
/// Each prices its level's topology under config.energy_params.
std::vector<UnitEnergyModel> level_energy_models(
    const MultiCoreConfig& config);

/// The models that price the levels of one_core_system(config), the
/// run Simulator executes: as above, except that a paper_priced()
/// config's L1 is priced by its paper_energy_model().
std::vector<UnitEnergyModel> level_energy_models(const SimConfig& config);

/// Builds the homogeneous N-core system of a single-stream SimConfig:
/// every core's private stack is the config's L1 (with its resolved
/// breakeven) plus its enabled lower levels, and `llc` is the shared
/// last level.  `ways_per_core` > 0 assigns core k the contiguous mask
/// ((1 << wpc) - 1) << (k * wpc); 0 leaves the LLC fully shared.  With
/// num_cores == 1 and ways_per_core == 0 the result is
/// one_core_system(config-with-llc-appended).
MultiCoreConfig make_multicore(const SimConfig& config,
                               std::size_t num_cores,
                               const LevelConfig& llc,
                               std::uint64_t ways_per_core = 0);

}  // namespace pcal
