// Small string helpers shared by trace I/O and report formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pcal {

/// Splits on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII in place and returns the string.
std::string to_lower(std::string s);

/// Formats a byte count as "8kB" / "512B" style (exact divisions only).
std::string format_size(std::uint64_t bytes);

/// The final '/'-separated component of a path ("a/b/c.pct" -> "c.pct").
std::string basename_of(std::string_view path);

/// A plain decimal count: digits and nothing else — no sign, space,
/// prefix or suffix; a leading zero is still decimal ("010" is 10) — that
/// fits in 64 bits.  nullopt otherwise.  pcalsweep's and pcal-tracepack's
/// count arguments, the PCAL_* environment counts and the fault spec's
/// fields come through here; config values through parse_scaled_count.
std::optional<std::uint64_t> parse_count(std::string_view s);

/// parse_count's digits times an optional binary multiplier suffix, k/K
/// (1024) or m/M (1024^2): "8k" is 8192.  nullopt when the digits do not
/// parse or the product passes 64 bits.
std::optional<std::uint64_t> parse_scaled_count(std::string_view s);

}  // namespace pcal
