// N-level cache hierarchies with inclusion policies: the level chain
// description and the per-access routing every run drives it with.
//
// A chain is an ordered list of levels — level 0 faces the CPU, each
// further level backs the one above it.  Every level is an
// independently-configured ManagedCache (any granularity, indexing,
// power policy and latency point, all built through make_managed_cache),
// and its InclusionPolicy selects which stream of its upper neighbour it
// consumes, one event per cycle of the run's clock (the single-port
// approximation: whatever rides together in a cycle shares the port):
//
//   kNonInclusive  the upper level's *miss* stream: an upper miss becomes
//                  one access at the missed address, with a dirty upper
//                  victim folded in as a write.  This is the legacy
//                  L1+L2 semantics, preserved bit for bit.
//   kInclusive     the same miss stream, plus back-invalidation coupling
//                  at two granularities: a victim evicted from this level
//                  is invalidated line by line in every level above (the
//                  subset property holds per line, not just per flush),
//                  and whenever this level's re-index update flushes it,
//                  the level above is flushed too, cascading upward
//                  through further inclusive links (the run engine's
//                  flush plan, core/multicore.cc).  Back-invalidation is
//                  a pure tag-store drop: no cycle, no wakeup, and a
//                  dirty upper copy is dropped without a writeback (the
//                  documented approximation).
//   kExclusive     the upper level's *eviction* stream: an upper miss
//                  that evicted a valid victim installs that victim here
//                  (a write iff it was dirty); a victimless upper miss
//                  probes the missed address instead (the lookup that
//                  would catch a previously-installed line).  Content
//                  converges to "lines evicted from above".
//   kVictim        the eviction stream only: victims are installed,
//                  every other cycle idles.  A pure victim sink — the
//                  maximal-idleness lower level.
//
// Every level of a run reads the run's one clock (core/timing.h), so a
// level an access does not reference needs no call: it idles, and its
// residencies and leakage are priced against real time.  Stalls
// compose: an access's AccessOutcome::stall_cycles is the sum over every
// level it actually referenced (each level priced by its own
// CacheTopology::latency), and the driver then advances the clock by
// 1 + that sum.  What each referenced level did is written only into a
// LevelTrace the caller passes: the run engine reads it to charge the
// contention model level by level and to attribute the shared LLC's
// traffic to the issuing core; nothing else pays for it.
//
// Known modeling asymmetries (unchanged from the two-level ancestor):
// dirty lines written back by a *flush* leave the hierarchy without
// touching the level below (CacheModel::flush counts them but reports no
// addresses), and exclusivity is approximate — a line moved
// conceptually upward by a probe hit cannot be invalidated below, so it
// may be double-counted until its lower frame is reused.
//
// Degeneracies (pinned in tests/hierarchy_test.cc and the backend parity
// suite at 1 and 8 sweep workers): a zero-size lower level is absent; a
// 2-level non-inclusive chain is the legacy SimConfig L1+L2 path bit for
// bit; zero latencies keep the idealized clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/managed_cache.h"

namespace pcal {

/// What a level holds relative to its upper neighbour, i.e. which of the
/// neighbour's streams it consumes.  Level 0 has no upper neighbour; its
/// policy is ignored.
enum class InclusionPolicy : std::uint8_t {
  kNonInclusive = 0,  // miss stream, no content coupling (the default)
  kInclusive = 1,     // miss stream + back-invalidation flush coupling
  kExclusive = 2,     // eviction installs, probe on victimless misses
  kVictim = 3,        // eviction installs only (pure victim sink)
};

/// One level of a routing chain as route_access() sees it: a borrowed
/// backend plus the inclusion policy tying it to the level above.
struct RoutedLevel {
  ManagedCache* cache = nullptr;
  InclusionPolicy inclusion = InclusionPolicy::kNonInclusive;
};

/// One level's slice of a routed access: which level was referenced,
/// at what address, which physical unit served it, and whether it hit /
/// shed a dirty victim.  This is what the contention layer
/// (core/contention.h) replays — each event claims that level's ports /
/// MSHRs / edge bandwidth — and what attributes a shared level's
/// tag-store traffic to a core.
struct LevelEvent {
  std::uint8_t level = 0;
  bool hit = false;
  bool writeback = false;
  std::uint64_t unit = 0;
  std::uint64_t address = 0;
};

/// Deepest chain a LevelTrace can record: 3 private levels + a shared
/// LLC is the deepest machine the configs can build; 6 leaves headroom.
constexpr std::size_t kMaxTraceLevels = 6;

/// The events of one routed access, one per level it referenced, level
/// 0 first.  A walk references a prefix of the chain, so `size` also
/// says how deep the access went: the chain's last level was referenced
/// iff size == the chain's length.  Caller-owned and reused; route_access
/// rewrites `size` and the first `size` events.
struct LevelTrace {
  std::size_t size = 0;
  LevelEvent events[kMaxTraceLevels];
};

/// Routes one CPU access through `levels` (levels[0] faces the CPU) at
/// the clock's current cycle, applying the per-level stream semantics
/// documented above: each lower level consumes its upper neighbour's
/// miss or eviction stream per its InclusionPolicy, the walk stops at
/// the first level with nothing to consume, and the returned outcome is
/// level 0's with stall_cycles summed over every level actually
/// referenced.  Given a `trace` (num_levels <= kMaxTraceLevels), each
/// referenced level's event is written there.  The levels must share
/// one clock, which the caller advances afterwards.  The run engine
/// (core/multicore.h) routes every access of a multi-level run through
/// it: each core's private levels with the shared LLC appended as the
/// chain's last level.
AccessOutcome route_access(RoutedLevel* levels, std::size_t num_levels,
                           std::uint64_t address, bool is_write,
                           LevelTrace* trace = nullptr);

/// One level of a hierarchy: its cache architecture plus how it relates
/// to the level above it.
struct LevelConfig {
  CacheTopology topology;
  InclusionPolicy inclusion = InclusionPolicy::kNonInclusive;

  /// A zero-size level is disabled — configs drop it before building
  /// the hierarchy (the degeneracy the parity tests pin).
  bool enabled() const { return topology.cache.size_bytes > 0; }
};

/// Ordered description of a whole hierarchy; levels[0] faces the CPU.
struct HierarchyConfig {
  std::vector<LevelConfig> levels;

  /// "8kB/16B/DM M=4 probing | L2 64kB/16B/DM M=4 static | L3/victim ..."
  /// — level 0 bare, lower levels tagged L<k> with a /policy suffix for
  /// non-default inclusion, each carrying its full topology describe()
  /// so hierarchy rows are distinguishable in BENCH JSON records.
  std::string describe() const;
};

}  // namespace pcal
