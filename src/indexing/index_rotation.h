// The time-varying indexing function f() (paper Fig. 2-3), at any width.
//
// f() permutes a `bits`-bit index: i -> ((i + add) mod 2^bits) XOR pattern.
// Every `update` signal advances it (and requires a cache flush, handled by
// ManagedCache::update_indexing):
//   - Probing (Fig. 3a) adds an update counter: a p-bit adder, whose mod-M
//     wrap is free by truncation.  An increment of 1 visits every slot
//     equally once M updates have been applied.
//   - Scrambling (Fig. 3b) XORs in the low `bits` bits of an LFSR that
//     steps on every update; uniformity is only asymptotic (paper §IV-B.2:
//     repetition error ∝ 1/√N over N updates).  The LFSR is min(24,
//     max(2, bits) + 8) bits wide, deliberately wider than the pattern: a
//     maximal LFSR never visits state 0, so a register of exactly `bits`
//     bits would never produce the identity pattern, while the low bits of
//     a wider one visit all 2^bits patterns, 0 included, near-uniformly.
//   - Static never moves: the conventional power-managed cache.
// Every f() is a bijection on [0, 2^bits), so remap-plus-flush never lets
// two indices collide.  The bank decoder rotates the p bank bits
// (bank/decoder.h); the line map rotates all n index bits
// (core/managed_cache.cc).
#pragma once

#include <cstdint>
#include <optional>

#include "util/lfsr.h"

namespace pcal {

enum class IndexingKind : std::uint8_t {
  kStatic = 0,     // identity forever (conventional partitioned cache)
  kProbing = 1,    // +counter mod M (Fig. 3a)
  kScrambling = 2, // XOR with LFSR state (Fig. 3b)
};

/// Width of Scrambling's LFSR for a `bits`-bit pattern:
/// min(24, max(2, bits) + 8), as the file comment derives.
unsigned scrambler_width(unsigned bits);

/// Throws ConfigError unless `seed` can seed an IndexRotation of `kind`
/// over `bits` index bits: Scrambling's LFSR must start nonzero, so the
/// seed must be nonzero in its low scrambler_width(bits) bits.  Static
/// and Probing read no seed.
void check_rotation_seed(IndexingKind kind, unsigned bits,
                         std::uint64_t seed);

class IndexRotation {
 public:
  /// The identity over `bits` index bits.  `seed` seeds Scrambling's LFSR
  /// (check_rotation_seed).
  IndexRotation(IndexingKind kind, unsigned bits, std::uint64_t seed);

  /// f(i) for the current update; i must be below 2^bits.
  std::uint64_t operator()(std::uint64_t i) const {
    return ((i + add_) & mask_) ^ pattern_;
  }

  /// Fires the `update` signal: advances f().
  void update();

  /// f(i) = ((i + add()) & mask()) ^ pattern(), for callers that keep
  /// the three by value.
  std::uint64_t add() const { return add_; }
  std::uint64_t pattern() const { return pattern_; }
  std::uint64_t mask() const { return mask_; }

 private:
  IndexingKind kind_;
  std::uint64_t mask_;
  std::uint64_t add_ = 0;
  std::uint64_t pattern_ = 0;
  /// Scrambling only: the LFSR the patterns come from.
  std::optional<GaloisLfsr> scrambler_;
};

}  // namespace pcal
