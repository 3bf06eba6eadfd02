// Behavioral cache model.
//
// A set-indexed tag store with optional associativity (LRU replacement) and
// write-back dirty tracking, accessed by (tag, set); address-based access
// is provided for convenience.  ManagedCache indexes it by the *logical*
// set, the address's own index bits: between two re-indexing updates f()
// is a bijection on sets, and every update flushes the store, so each
// physical set would hold exactly one logical set's lines in the same ways
// and LRU order.  The store reads no clock (LRU counts accesses), so hits,
// misses, served ways, writebacks and victims depend on none of the
// partitioning, f(), power policy or latency — which is what lets lockstep
// runs of one geometry share one store (core/multicore.h).  A victim's
// address is rebuilt from its (tag, set).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_config.h"

namespace pcal {

struct CacheAccessResult {
  bool hit = false;
  bool writeback = false;  // a dirty victim was evicted
  /// A valid line (dirty or clean) was evicted to make room; its
  /// line-aligned address is `victim_address`, rebuilt from the victim's
  /// tag and the accessed set.
  bool evicted = false;
  /// Way within the set that served the access (the hitting way, or the
  /// replacement victim on a miss).  0 for direct-mapped caches; lets
  /// way-grain power management attribute the access to its unit.
  std::uint64_t way = 0;
  std::uint64_t victim_address = 0;
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;       // dirty evictions (capacity/conflict)
  std::uint64_t flushes = 0;          // whole-cache flushes
  std::uint64_t flushed_dirty = 0;    // dirty lines written back by flushes

  double hit_rate() const {
    return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  double miss_rate() const { return accesses ? 1.0 - hit_rate() : 0.0; }
};

class CacheModel {
 public:
  explicit CacheModel(const CacheConfig& config);

  const CacheConfig& config() const { return config_; }

  /// Access by pre-computed (tag, set).  `set` must be < num_sets().
  CacheAccessResult access(std::uint64_t tag, std::uint64_t set,
                           bool is_write);

  /// Lookup without allocation: counts one access and a hit/miss, touches
  /// LRU on a hit, but a miss installs nothing and evicts nothing.  The
  /// exclusive-hierarchy probe — the line, if absent, stays absent.
  CacheAccessResult probe(std::uint64_t tag, std::uint64_t set);

  /// Convenience for monolithic (non-banked) use: derives tag/set from the
  /// address per the configured geometry.
  CacheAccessResult access_address(std::uint64_t address, bool is_write);

  /// Restricts *allocation* (miss-victim choice) to the ways whose mask
  /// bit is set.  Hits are served from any way — a line resident outside
  /// the mask is still found and touched — which is the standard
  /// way-partitioning semantics a shared LLC uses for QoS isolation
  /// (core/multicore.h).  The full mask (the default) is the unmasked
  /// victim loop, bit for bit.  The mask must select at least one of the
  /// configured ways.
  void set_alloc_way_mask(std::uint64_t mask);
  std::uint64_t alloc_way_mask() const { return alloc_mask_; }

  /// Invalidates everything; returns the number of dirty lines flushed
  /// (they would be written back to the next level).
  std::uint64_t flush();

  /// Drops (tag, set) from the tag store if resident: a pure tag-store
  /// operation — no access counted, no LRU touch, and a dirty line is
  /// dropped without a writeback (the hierarchy's back-invalidation
  /// approximation; see core/hierarchy.h).  Returns true iff a line was
  /// invalidated.
  bool invalidate(std::uint64_t tag, std::uint64_t set);

  /// True iff (tag, set) is currently resident.
  bool contains(std::uint64_t tag, std::uint64_t set) const;

  /// Number of currently valid lines (for occupancy diagnostics).
  std::uint64_t valid_lines() const;

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // higher = more recently used
    bool valid = false;
    bool dirty = false;
  };

  CacheConfig config_;
  std::uint64_t num_sets_ = 0;  // config_.num_sets(), set at construction
  unsigned offset_bits_ = 0;    // config_.offset_bits()
  unsigned tag_shift_ = 0;      // offset bits + index bits
  std::vector<Way> ways_;       // num_sets * ways, set-major
  std::uint64_t lru_clock_ = 0;
  /// Allocation (victim-choice) way mask; ways >= 64 are always
  /// allocatable (the mask cannot name them).
  std::uint64_t alloc_mask_ = ~std::uint64_t{0};
  CacheStats stats_;
};

// Inline: the per-access body of every ManagedCache loop calls it.
inline CacheAccessResult CacheModel::access(std::uint64_t tag,
                                            std::uint64_t set,
                                            bool is_write) {
  PCAL_ASSERT_MSG(set < num_sets_,
                  "set " << set << " out of range " << num_sets_);
  ++stats_.accesses;
  ++lru_clock_;
  Way* base = &ways_[set * config_.ways];
  Way* victim = nullptr;
  for (std::uint64_t w = 0; w < config_.ways; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      ++stats_.hits;
      way.lru = lru_clock_;
      if (is_write) way.dirty = true;
      return {true, false, false, w, 0};
    }
    // Only allocatable ways (the alloc mask; ways >= 64 always qualify)
    // compete for the victim slot — hits above are mask-blind.
    if (w < 64 && !(alloc_mask_ >> w & 1)) continue;
    // Track the replacement victim: first invalid way wins, else oldest.
    if (victim == nullptr) {
      victim = &way;
    } else if (!way.valid) {
      if (victim->valid) victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  ++stats_.misses;
  PCAL_ASSERT_MSG(victim != nullptr,
                  "allocation way mask selects no way in set " << set);
  const bool evicted = victim->valid;
  const bool writeback = evicted && victim->dirty;
  const std::uint64_t victim_address =
      evicted ? (victim->tag << tag_shift_) | (set << offset_bits_) : 0;
  if (writeback) ++stats_.writebacks;
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = is_write;
  victim->lru = lru_clock_;
  return {false, writeback, evicted,
          static_cast<std::uint64_t>(victim - base), victim_address};
}

}  // namespace pcal
