// The power-managed cache: one class for every architecture.
//
// The paper's evaluation is a comparison across architectures that differ
// only in the *granularity* at which idleness is harvested and re-indexed:
// the monolithic cache (no management), the paper's uniformly partitioned
// banks, and the per-line scheme of its reference [7].  ManagedCache is all
// of them: one tag store (CacheModel), one Block Control over the
// topology's power-management units, and one per-access body in two
// steps that access(), probe() and access_batch() share, on the run's one
// clock (TimingModel, core/timing.h):
//
//   - the *tag step* walks the tag store, indexed by the logical set (the
//     address's own index bits): hit or miss, the served way, the victim;
//   - the *power step* maps the logical set and the served way to the
//     unit that pays, and runs Block Control, the wakeup and the stall.
//
// The only per-granularity code is a *unit map* (core/managed_cache.cc),
// the power step's rule for that unit.  Every map that re-indexes moves
// through one f(), an IndexRotation (indexing/index_rotation.h): over the
// p bank bits in the bank decoder (bank and way grain), over all n index
// bits at line grain.  Every update flushes the tag store and f() is a
// bijection on sets in between, so the store's outcomes depend on the
// geometry and the flush points alone (cache/cache.h): lockstep runs of
// one geometry walk one shared store (share_tags) and each runs only its
// own power step (core/multicore.h).
//
// A "unit" is the architecture's power-management granule: the whole cache
// (monolithic), one bank, one way-column of a bank (way-grain), or one
// line.  All residency / activity queries are per-unit; aggregate helpers
// are derived from them.
//
// The power policy is two thresholds, not code: every unit sleeps after
// `breakeven_cycles` idle cycles and counts as power-gated after
// CacheTopology::gate_cycles().  The gated policy is the case where the
// two coincide; the drowsy hybrid's window separates them.  Block
// Control is built with both and keeps, per unit, running counts and
// sums of the idle intervals past each (IdleSums, util/stats.h): that is
// all the residency and activity queries read, and an access adds to
// them without allocating.
//
// ## Ownership, thread-safety and determinism (the API contract)
//
// - make_managed_cache returns a uniquely-owned cache; the topology is
//   copied into it, so the CacheTopology may be destroyed afterwards.
// - Clock: built without one, a cache owns a clock and advances it as it
//   serves — one cycle per access() or probe(), n cycles plus the
//   batch's stalls per access_batch().  Built on a run's clock, it only
//   reads that clock: the run advances it, so all of a run's caches are
//   on one cycle by construction.  The clock must outlive the cache.
// - A ManagedCache instance is NOT thread-safe: all mutating calls
//   (access, update_indexing, finish) must come from one thread at a
//   time.  The caches of one run share only its clock, and they live on
//   one worker; distinct runs share no mutable state but the tag store a
//   lockstep group shares on that one worker (each cohort member keeps
//   its own run clock), which is what lets SweepRunner drive one run per
//   worker with no locks.
// - Every cache is deterministic: the same topology and the same access
//   sequence at the same cycles produce bit-identical outcomes,
//   statistics and residencies, on any machine and regardless of what
//   other instances are doing.
// - Query order: residency/activity queries are only valid after
//   finish(), and read the cycle finish() closed at; access and
//   update_indexing are only valid before.  finish() is idempotent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bank/block_control.h"
#include "bank/decoder.h"
#include "bank/partition_config.h"
#include "cache/cache.h"
#include "cache/cache_config.h"
#include "core/contention.h"
#include "core/timing.h"
#include "indexing/index_rotation.h"
#include "trace/access.h"

namespace pcal {

/// Power-management granularity of a cache architecture: which unit map
/// ManagedCache runs (the maps and their rationale are documented in
/// core/managed_cache.cc).
enum class Granularity : std::uint8_t {
  kMonolithic = 0,  // one unit: the whole cache (no partitioning)
  kBank = 1,        // the paper's M uniform banks
  kLine = 2,        // per-line management, reference [7]'s upper bound
  kWay = 3,         // per-way within each bank: M x W units
};

/// What happens to an idle unit once its breakeven counter saturates.
enum class PowerPolicy : std::uint8_t {
  /// Straight to the state-destructive power-gated state (the paper's
  /// scheme; lowest sleep leakage, full wakeup cost).
  kGated = 0,
  /// First to the state-preserving drowsy voltage (reference [7]'s
  /// comparison point: reduced-but-nonzero leakage, cheap wakeup), then
  /// power-gate after a second threshold (`drowsy_window_cycles` more
  /// idle cycles).  A zero window degenerates exactly to kGated.
  kDrowsyHybrid = 1,
};

/// Outcome of one access through the unified interface: what one level
/// did with one access.  `unit` is the power-management granule index
/// (bank number, line number, bank*W+way, or 0).  route_access
/// (core/hierarchy.h) returns level 0's, with stall_cycles summed over
/// the levels the access referenced, and records the other levels'
/// slices only in a LevelTrace its caller asks for.
struct AccessOutcome {
  bool hit = false;
  bool writeback = false;  // a dirty victim was evicted
  std::uint64_t logical_unit = 0;
  std::uint64_t physical_unit = 0;
  /// The access had to wake its unit from retention (costs a transition).
  bool woke_unit = false;
  /// How deep that unit was sleeping (kAwake when !woke_unit; kGated for
  /// every wakeup under the pure gated policy; the hybrid distinguishes
  /// drowsy wakeups within the window from gated ones past it).
  WakeDepth wake = WakeDepth::kAwake;
  /// Stall cycles this access costs beyond its one base cycle, priced by
  /// the level's CacheTopology::latency (0 under the default all-zero
  /// latencies — the idealized clock).
  std::uint64_t stall_cycles = 0;
  /// A valid line was evicted by this access (whether or not it was
  /// dirty; `writeback` flags the dirty case).  `victim_address` is its
  /// line-aligned address — the eviction stream a victim or exclusive
  /// lower level consumes.
  bool evicted = false;
  std::uint64_t victim_address = 0;
};

/// The tag step's outcome of one access: the logical set it indexed and
/// what the tag store did there — everything the power step reads from
/// the store.
struct TagOutcome {
  std::uint64_t set = 0;
  CacheAccessResult result;
};

/// Instantaneous power state of one unit, as the interval observer and
/// the timeline artifact report it (docs/TIMELINE.md).  With one access
/// per cycle a unit's state is a pure function of its current idle gap:
/// shorter than the breakeven it is awake, past the gate threshold it has
/// power-gated, in between (the hybrid policy's drowsy window) it holds
/// at the drowsy voltage.  Under the pure gated policy the two thresholds
/// coincide, so kDrowsy never appears.
enum class UnitPowerState : std::uint8_t {
  kAwake = 0,
  kDrowsy = 1,
  kGated = 2,
};

/// One-letter spelling used by the compact timeline encoding ("AADG").
inline char to_char(UnitPowerState s) {
  switch (s) {
    case UnitPowerState::kAwake:
      return 'A';
    case UnitPowerState::kDrowsy:
      return 'D';
    case UnitPowerState::kGated:
      return 'G';
  }
  return '?';
}

/// Per-unit activity facts, valid after finish().
///
/// `sleep_cycles`/`sleep_episodes` count *any* low-power state (idle
/// time past the breakeven).  Sleep is always split at the gate
/// threshold: the share before it is drowsy, the remainder gated.  Under
/// PowerPolicy::kGated the gate threshold equals the breakeven, so
/// `drowsy_cycles` is 0 and `gated_episodes == sleep_episodes`.
struct UnitActivity {
  std::uint64_t accesses = 0;
  std::uint64_t sleep_cycles = 0;
  std::uint64_t sleep_episodes = 0;
  double useful_idleness_count = 0.0;  // share of idle intervals > breakeven
  /// Cycles of sleep spent at the drowsy (state-preserving) voltage.
  /// Gated cycles = sleep_cycles - drowsy_cycles.
  std::uint64_t drowsy_cycles = 0;
  /// Sleep episodes that deepened into the power-gated state.
  std::uint64_t gated_episodes = 0;
};

/// Complete description of one cache architecture: what a ManagedCache
/// needs to construct itself.  `partition` is consulted at kBank and kWay
/// granularity; `indexing` selects the time-varying mapping f() (kStatic
/// disables rotation at any granularity).
struct CacheTopology {
  Granularity granularity = Granularity::kBank;
  CacheConfig cache;
  PartitionConfig partition;
  IndexingKind indexing = IndexingKind::kProbing;
  std::uint64_t indexing_seed = 1;
  /// Idle cycles before a unit enters the low-power state (drowsy entry
  /// for the hybrid policy, power gating otherwise).
  std::uint64_t breakeven_cycles = 32;
  /// What the low-power state is (see PowerPolicy).
  PowerPolicy policy = PowerPolicy::kGated;
  /// kDrowsyHybrid only: additional idle cycles a unit dwells at the
  /// drowsy voltage before it is power-gated.  0 disables the drowsy
  /// window (the gate threshold is then the breakeven: the gated policy,
  /// bit for bit).
  std::uint64_t drowsy_window_cycles = 0;
  /// Event costs of this level in stall cycles (core/timing.h).  The
  /// all-zero default keeps the idealized one-access-per-cycle clock.
  LatencyParams latency;
  /// Finite-resource limits of this level (core/contention.h): MSHRs,
  /// per-bank ports, downstream bandwidth.  The all-unlimited default
  /// keeps contention off — the driver charges nothing.
  ContentionParams contention;

  /// Number of power-management units this topology yields.
  std::uint64_t num_units() const;

  /// True iff the drowsy window is actually in play.
  bool drowsy_active() const {
    return policy == PowerPolicy::kDrowsyHybrid && drowsy_window_cycles > 0;
  }

  /// Idle cycles after which a unit is power-gated (breakeven plus the
  /// drowsy window when the hybrid policy is active).
  std::uint64_t gate_cycles() const {
    return breakeven_cycles + (drowsy_active() ? drowsy_window_cycles : 0);
  }

  /// True iff this topology has anything to re-index: a time-varying
  /// mapping over more than one unit.  The single source of truth for
  /// both the run engine's update cadence and its per-level flush plan
  /// — a non-rotating level is never flushed by the update signal.
  bool rotates() const {
    return indexing != IndexingKind::kStatic && num_units() > 1;
  }

  void validate() const;

  /// Human-readable label, e.g. "8kB/16B/DM M=4 probing".
  std::string describe() const;
};

/// The power-managed cache: one access consumed per cycle, explicit
/// re-indexing updates, per-unit idleness bookkeeping, at any granularity
/// and power policy.
///
/// Thread-safety: instances are confined to one thread at a time (see the
/// file comment); const queries after finish() may be read concurrently.
class ManagedCache {
 public:
  /// Validates `topology` (throws ConfigError) and builds its cache on
  /// `clock`, a run's clock that this cache only reads; nullptr gives
  /// the cache a clock of its own (see the file comment).
  explicit ManagedCache(const CacheTopology& topology,
                        const TimingModel* clock = nullptr);

  /// Simulates one access at the clock's current cycle.
  AccessOutcome access(std::uint64_t address, bool is_write);

  /// Simulates one lookup at the clock's current cycle *without
  /// allocating on a miss*: the serving unit is activated exactly as for
  /// access() (it wakes if sleeping, its idle counter resets, hit/miss
  /// statistics and stall cycles count), but a missing line stays absent
  /// — nothing is installed, nothing evicted.  This is the exclusive
  /// hierarchy's probe path (core/hierarchy.h): the probed line, if
  /// found, conceptually moves up rather than filling this level.  At
  /// way grain a probe miss touches no way; the tag store reports way 0,
  /// so the cost lands on the set's first way-column.
  AccessOutcome probe(std::uint64_t address);

  /// Simulates `n` accesses in one call.  Access i is served at the
  /// clock's current cycle + i + the stalls of the accesses before it,
  /// so sleep/wake classification, statistics and residencies are
  /// bit-identical to a per-access loop that advances the clock by
  /// 1 + stall after each access(), at every batch size.  The clock's
  /// owner then advances it by n + the returned stalls (a standalone
  /// cache does so itself).  The loop is compiled once per unit map and
  /// checks its invariants once per batch rather than per access.
  ///
  /// `out` is optional: given a caller-owned array of length >= n, one
  /// outcome per access is written there; given nullptr, no outcome is
  /// written and nothing else changes.  The run engine passes nullptr —
  /// it reads only the returned stall.
  ///
  /// Returns the batch's summed stall_cycles, accumulated in-register so
  /// the driver's clock never reads an outcome.
  std::uint64_t access_batch(const MemAccess* accesses, std::size_t n,
                             AccessOutcome* out);

  /// access_batch() in its two steps, for lockstep runs that share one
  /// tag store: tag_batch() walks the store for `n` accesses and writes
  /// one TagOutcome per access to `tags`; power_batch() then runs the
  /// power step of each sharing cache over them, with access_batch()'s
  /// clock, stall and outcome semantics.  tag_batch() on one cache
  /// followed by power_batch() on it is access_batch(), bit for bit.
  void tag_batch(const MemAccess* accesses, std::size_t n, TagOutcome* tags);
  std::uint64_t power_batch(const TagOutcome* tags, std::size_t n,
                            AccessOutcome* out);

  /// Walks `other`'s tag store from now on instead of its own: every tag
  /// step either cache takes, stats() and cache() read the one store.
  /// Both must have the same CacheConfig and have served nothing yet.
  /// The store's owners must then feed it each access once and flush it
  /// once per update: one update_indexing(), and rotate_indexing() on
  /// every other cache that shares it.
  void share_tags(const ManagedCache& other);

  /// Fires the update signal: advances the time-varying indexing and
  /// flushes the cache.  Returns the number of dirty lines written back.
  std::uint64_t update_indexing();

  /// update_indexing() without the flush: for a cache whose shared tag
  /// store another sharer's update_indexing() flushed for this update.
  void rotate_indexing();

  /// Finalizes idle-interval bookkeeping at the clock's current cycle;
  /// call when the trace ends.  Residency/activity queries are only
  /// valid afterwards.  Idempotent.
  void finish();

  /// The clock's current cycle: accesses consumed + stall and idle
  /// cycles, on the run's clock or the cache's own.
  std::uint64_t cycles() const { return clock_->total_cycles(); }

  /// Number of independently power-managed units.
  std::uint64_t num_units() const { return control_.num_banks(); }

  /// Sleep residency of one physical unit over the simulated time.
  double unit_residency(std::uint64_t unit) const;

  /// Mean / worst-case unit residency (worst case limits lifetime).
  double avg_residency() const;
  double min_residency() const;

  /// Tag-store statistics (hits, misses, writebacks, flushes).
  const CacheStats& stats() const { return tags_->stats(); }

  /// Number of re-indexing updates applied so far.
  std::uint64_t indexing_updates() const { return updates_; }

  /// Per-unit activity for energy accounting; valid after finish().
  UnitActivity unit_activity(std::uint64_t unit) const;

  /// Instantaneous power state of one unit at the current cycle — what
  /// the interval observer samples for the power-state timeline.  Valid
  /// at any point of the run (unlike the post-finish() activity
  /// queries): below the breakeven the unit is awake, at or past the
  /// gate threshold it has power-gated, in between it is drowsy.
  UnitPowerState unit_state(std::uint64_t unit) const;

  /// Restricts *allocation* (miss-victim choice) to the tag-store ways
  /// whose mask bit is set; hits are still served from any way, so a
  /// line resident outside the mask is found and touched — standard
  /// way-partitioning semantics, used by the multi-core shared LLC for
  /// QoS isolation (core/multicore.h).  Returns false at line grain,
  /// whose units are sets, not way-organized columns; passing the full
  /// mask (~0) restores unrestricted allocation.
  bool set_alloc_way_mask(std::uint64_t mask);

  /// Drops the line containing `address` from the tag store if resident:
  /// a pure tag-store operation — the same mapping as an access, but no
  /// cycle is consumed, no unit wakes, no statistics move, and a dirty
  /// line is dropped without a writeback (the inclusive back-invalidation
  /// approximation, documented in core/hierarchy.h).  Returns true iff a
  /// line was invalidated.
  bool invalidate_line(std::uint64_t address);

  /// Read-only view of the tag store (occupancy diagnostics).
  const CacheModel& cache() const { return *tags_; }

 private:
  /// The logical and physical unit bases of one logical set, which the
  /// unit map refines with the served way.
  struct Slot {
    std::uint64_t logical;
    std::uint64_t physical;
  };

  /// The four unit maps, defined and documented in managed_cache.cc.
  struct MonolithicMap;
  struct BankMap;
  struct WayMap;
  struct LineMap;

  /// The power step and the state it keeps in locals (managed_cache.cc).
  struct PowerStep;

  /// Calls `f` with the topology's unit map (one switch per call).
  template <class F>
  decltype(auto) with_unit_map(F&& f) const;

  /// The tag step of one access.
  TagOutcome tag_step(std::uint64_t address, bool is_write, bool allocate) {
    const std::uint64_t set = set_index_of(address);
    const std::uint64_t tag = tag_of(address);
    return {set, allocate ? tags_->access(tag, set, is_write)
                          : tags_->probe(tag, set)};
  }

  AccessOutcome serve_one(std::uint64_t address, bool is_write,
                          bool allocate);

  /// The power step over `n` tag outcomes, serving the first at `*now`
  /// and advancing it past the last; returns the summed stalls.
  template <class Map>
  std::uint64_t power_pass(const Map& map, const TagOutcome* tags,
                           std::size_t n, std::uint64_t* now,
                           AccessOutcome* out);

  /// CacheConfig::set_index_of / tag_of over the geometry fixed at
  /// construction: no per-access log2 or division.
  std::uint64_t set_index_of(std::uint64_t address) const {
    return (address >> offset_bits_) & index_mask_;
  }
  std::uint64_t tag_of(std::uint64_t address) const {
    return address >> tag_shift_;
  }

  CacheTopology topology_;
  /// The tag store: this cache's own, or one it shares (share_tags).
  std::shared_ptr<CacheModel> tags_;
  BlockControl control_;
  unsigned offset_bits_;
  unsigned tag_shift_;  // offset bits + index bits
  std::uint64_t index_mask_;
  /// Bank and way grain: the p-MSB decode through f().
  std::optional<BankDecoder> decoder_;
  /// Line grain: f() over all n index bits.
  std::optional<IndexRotation> line_f_;
  /// A standalone cache's own clock (null on a run's clock).
  std::unique_ptr<TimingModel> own_clock_;
  const TimingModel* clock_;
  std::uint64_t updates_ = 0;
  /// The cycle finish() closed at; empty until then.
  std::optional<std::uint64_t> finished_at_;
};

/// Builds the cache for a topology — every granularity and power policy
/// is the one ManagedCache class — on a run's `clock`, or on a clock of
/// its own when `clock` is null (see the file comment).  Throws
/// ConfigError on invalid topologies.
std::unique_ptr<ManagedCache> make_managed_cache(
    const CacheTopology& topology, const TimingModel* clock = nullptr);

}  // namespace pcal
