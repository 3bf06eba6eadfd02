// Uniform partition geometry (paper §III).
//
// The cache's 2^n lines are split into M = 2^p banks of 2^(n-p) lines each.
// Uniform sizes are the paper's key architectural choice: decoding is a bit
// split (no comparators), the layout is application independent, and the
// miss rate is untouched because the partition never changes which line an
// address can occupy — only *which physical bank* hosts it.
#pragma once

#include <cstdint>

#include "cache/cache_config.h"
#include "util/bitops.h"
#include "util/error.h"

namespace pcal {

struct PartitionConfig {
  /// The paper's feasibility bound on M (wiring overhead).
  static constexpr std::uint64_t kMaxBanks = 16;

  std::uint64_t num_banks = 4;  // M; must be a power of two

  /// p in the paper: number of bank-select bits.
  unsigned bank_bits() const { return log2_exact(num_banks); }

  /// Lines per bank for a given cache geometry: 2^(n-p).
  std::uint64_t lines_per_bank(const CacheConfig& cache) const {
    return cache.num_sets() / num_banks;
  }

  /// Bytes of data array per bank.
  std::uint64_t bank_bytes(const CacheConfig& cache) const {
    return cache.size_bytes / num_banks;
  }

  void validate(const CacheConfig& cache) const {
    PCAL_CONFIG_CHECK(is_pow2(num_banks),
                      "bank count must be a power of two, got " << num_banks);
    PCAL_CONFIG_CHECK(num_banks <= kMaxBanks,
                      "paper considers partitioning feasible only up to "
                      "M = 16 banks (wiring overhead); got " << num_banks);
    PCAL_CONFIG_CHECK(num_banks <= cache.num_sets(),
                      "more banks than cache sets");
  }
};

}  // namespace pcal
