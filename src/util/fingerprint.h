// Incremental 64-bit FNV-1a hashing for identity stamps.
//
// One primitive behind every "was this produced from the same inputs?"
// check: sweep journals fingerprint their cross-product and checksum each
// line with it, and the build-generated aging LUT is stamped with a
// fingerprint of the cell parameters it was characterized from.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace pcal {

/// Incremental 64-bit FNV-1a hasher.  Deterministic across platforms and
/// runs (no pointer or time inputs), cheap enough to hash every line.
class Fingerprint {
 public:
  /// Hashes raw bytes.
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= kPrime;
    }
  }

  /// Hashes a u64 by its decimal spelling, length-prefixed so that
  /// adjacent fields can never alias ("1","23" vs "12","3").
  void add_u64(std::uint64_t v) {
    char buf[24];
    const int n = std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    add(std::string_view("#", 1));  // length/field separator
    add(std::string_view(buf, static_cast<std::size_t>(n)));
  }

  /// Hashes a double by its exact bit pattern (so 0.1 and the next
  /// representable double differ, and -0.0 differs from 0.0).
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_u64(bits);
  }

  std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a offset basis
};

/// A fingerprint as written to journals and records: 16 lowercase hex
/// digits, zero-padded.
inline std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace pcal
