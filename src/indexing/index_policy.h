// Time-varying bank indexing policies (the paper's f(), Fig. 2).
//
// The decoder extracts the p MSBs of the cache index as the *logical* bank
// number; an IndexingPolicy maps it to a *physical* bank.  Every `update()`
// changes the mapping (and requires a cache flush, handled by
// ManagedCache::update_indexing).  A policy must always be a permutation of
// [0, M): every logical bank maps to exactly one physical bank, or lines
// would collide after remapping.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace pcal {

class IndexingPolicy {
 public:
  virtual ~IndexingPolicy() = default;

  /// Maps a logical bank in [0, M) to a physical bank in [0, M).
  virtual std::uint64_t map_bank(std::uint64_t logical_bank) const = 0;

  /// Advances the time-varying mapping (paper: the `update` signal).
  virtual void update() = 0;

  /// Restores the time-zero mapping.
  virtual void reset() = 0;

  /// Number of banks M.
  virtual std::uint64_t num_banks() const = 0;

  /// Number of updates applied since reset.
  virtual std::uint64_t updates() const = 0;

  virtual std::string name() const = 0;

  virtual std::unique_ptr<IndexingPolicy> clone() const = 0;
};

enum class IndexingKind : std::uint8_t {
  kStatic = 0,     // identity forever (conventional partitioned cache)
  kProbing = 1,    // +counter mod M (Fig. 3a)
  kScrambling = 2, // XOR with LFSR state (Fig. 3b)
};

/// Builds a policy for M banks.  `seed` parameterizes Scrambling's LFSR.
std::unique_ptr<IndexingPolicy> make_indexing_policy(IndexingKind kind,
                                                     std::uint64_t num_banks,
                                                     std::uint64_t seed = 1);

}  // namespace pcal
