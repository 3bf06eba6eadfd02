// Bank decoder "D" with dynamic indexing (paper Fig. 1b + Fig. 2).
//
// Splits an n-bit cache index into (p MSBs = logical bank, n-p LSBs =
// line-in-bank), routes the logical bank through the time-varying f()
// (an IndexRotation over the p bank bits), and produces both the physical
// set index and the 1-hot activation word.  This is the entire hardware
// addition of the paper's architecture; everything else is standard
// memory-compiler macros.
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
  std::uint64_t physical_bank = 0;  // after f()
  std::uint64_t line = 0;           // n-p LSBs, unchanged by f()
  std::uint64_t physical_set = 0;   // physical_bank * lines_per_bank + line
  std::uint64_t select_mask = 0;    // 1-hot over M banks
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
    DecodedIndex d;
    d.line = set_index & line_mask_;
    d.logical_bank = set_index >> line_bits_;
    d.physical_bank = physical_bank_[d.logical_bank];
    d.physical_set = (d.physical_bank << line_bits_) | d.line;
    d.select_mask = std::uint64_t{1} << d.physical_bank;
    return d;
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
  std::uint64_t line_mask_;
  std::uint64_t num_banks_;
  IndexRotation f_;
  /// f() for the current update: logical bank -> physical bank.
  std::array<std::uint64_t, PartitionConfig::kMaxBanks> physical_bank_{};
};

}  // namespace pcal
