// Cache geometry configuration.
//
// The paper's experiments use direct-mapped caches of 8/16/32kB with 16 or
// 32-byte lines; the model also supports set-associativity as an extension.
// All geometry parameters must be powers of two, matching the hardware
// constraint the paper leans on ("M = 2^p for obvious practical reasons").
#pragma once

#include <cstdint>
#include <string>

#include "util/bitops.h"
#include "util/error.h"

namespace pcal {

struct CacheConfig {
  std::uint64_t size_bytes = 16 * 1024;
  std::uint64_t line_bytes = 16;
  std::uint64_t ways = 1;          // 1 = direct-mapped
  unsigned address_bits = 32;      // physical address width, for tag sizing

  // ---- derived geometry ----

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / ways; }
  /// n in the paper: number of index bits (direct-mapped: log2(num_lines)).
  unsigned index_bits() const { return log2_exact(num_sets()); }
  unsigned offset_bits() const { return log2_exact(line_bytes); }
  /// Tag bits stored per line.  Grows when the index shrinks (bigger lines
  /// or higher associativity), which is what makes tag arrays relatively
  /// more expensive at 32B lines (paper, Table III discussion).
  unsigned tag_bits() const {
    return address_bits - index_bits() - offset_bits();
  }

  std::uint64_t set_index_of(std::uint64_t address) const {
    return (address >> offset_bits()) & low_mask(index_bits());
  }
  std::uint64_t tag_of(std::uint64_t address) const {
    return address >> (offset_bits() + index_bits());
  }

  // Single-field constraints.  validate() applies all of them; the
  // run-assembly layer also applies each where its key is set, so a bad
  // value is reported against its key.
  static void check_size(std::uint64_t bytes) {
    PCAL_CONFIG_CHECK(is_pow2(bytes), "cache size must be a power of 2");
  }
  static void check_line(std::uint64_t bytes) {
    PCAL_CONFIG_CHECK(is_pow2(bytes) && bytes >= 4,
                      "line size must be a power of 2 and >= 4 bytes");
  }
  static void check_ways(std::uint64_t n) {
    PCAL_CONFIG_CHECK(is_pow2(n) && n >= 1,
                      "associativity must be a power of 2");
  }

  void validate() const {
    check_size(size_bytes);
    check_line(line_bytes);
    check_ways(ways);
    PCAL_CONFIG_CHECK(size_bytes >= line_bytes * ways,
                      "cache must hold at least one set");
    PCAL_CONFIG_CHECK(address_bits >= index_bits() + offset_bits() + 1,
                      "address width too small for this geometry");
    PCAL_CONFIG_CHECK(address_bits <= 48, "address width too large");
  }

  std::string describe() const;

  friend bool operator==(const CacheConfig& a, const CacheConfig& b) {
    return a.size_bytes == b.size_bytes && a.line_bytes == b.line_bytes &&
           a.ways == b.ways && a.address_bits == b.address_bits;
  }
};

}  // namespace pcal
