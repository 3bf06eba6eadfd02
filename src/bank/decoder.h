// Bank decoder "D" with dynamic indexing (paper Fig. 1b + Fig. 2).
//
// Splits an n-bit cache index into (p MSBs = logical bank, n-p LSBs =
// line-in-bank) and routes the logical bank through the time-varying f()
// (an IndexRotation over the p bank bits) to the physical bank whose
// 1-hot select line it raises; the line-in-bank passes through unchanged.
// This is the entire hardware addition of the paper's architecture;
// everything else is standard memory-compiler macros.  The simulator needs
// only the physical bank: its tag store is indexed by the logical set
// (cache/cache.h), which every update's flush makes exact.
//
// Between two `update` signals f() is a fixed p-bit permutation, so the
// decoder keeps it as an M-entry table of physical banks, rebuilt from
// the rotation at construction and at every update().  Each rebuild
// checks the table is a permutation of [0, M); decode() is then a bit
// split and one table read, inline.
#pragma once

#include <array>
#include <cstdint>

#include "bank/partition_config.h"
#include "indexing/index_rotation.h"
#include "util/error.h"

namespace pcal {

struct DecodedIndex {
  std::uint64_t logical_bank = 0;   // p MSBs before f()
  std::uint64_t physical_bank = 0;  // after f(): the bank that serves
};

class BankDecoder {
 public:
  /// f() is the `indexing` rotation over the partition's p bank bits;
  /// `seed` seeds Scrambling's LFSR.
  BankDecoder(const CacheConfig& cache, const PartitionConfig& partition,
              IndexingKind indexing, std::uint64_t seed);

  /// Decodes an n-bit set index (as produced by CacheConfig::set_index_of).
  DecodedIndex decode(std::uint64_t set_index) const {
    PCAL_ASSERT_MSG(set_index >> index_bits_ == 0, "set index out of range");
    const std::uint64_t logical = set_index >> line_bits_;
    return {logical, physical_bank_[logical]};
  }

  /// Fires the `update` signal: advances f().  The caller must flush the
  /// cache afterwards — the mapping change invalidates all resident lines.
  void update() {
    f_.update();
    rebuild_table();
  }

  unsigned index_bits() const { return index_bits_; }
  unsigned bank_bits() const { return bank_bits_; }
  std::uint64_t num_banks() const { return num_banks_; }

 private:
  /// Re-reads f() into physical_bank_; throws pcal::Error unless it is a
  /// permutation of [0, M).
  void rebuild_table();

  unsigned index_bits_;  // n
  unsigned bank_bits_;   // p
  unsigned line_bits_;   // n - p
  std::uint64_t num_banks_;
  IndexRotation f_;
  /// f() for the current update: logical bank -> physical bank.
  std::array<std::uint64_t, PartitionConfig::kMaxBanks> physical_bank_{};
};

}  // namespace pcal
