// The strict sectioned INI reader behind every config file pcal reads:
// pcalsim's INI and pcalsweep's .sweep specs.
//
// Format: `[section]` headers, `key = value` lines, blank lines, and
// comment lines starting with `#` or `;`.  Trailing comments after a
// value are NOT stripped (a trace path may contain '#').  The reader is
// strict on structure: a malformed header, a line without '=', an empty
// key, a key before any header, a section the caller does not list and a
// key repeated within its section are errors naming the line.
// Command-line overrides ("section.key=value") then replace the entry of
// the same section and key in place, or append a new one.  Which keys a
// section accepts, and what they mean, is the caller's business.
//
// The value parsers every config front-end shares live here too, so a
// number is spelled the same way in an INI, a sweep spec and a Python
// entry dict.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pcal {

/// One "key = value" entry, in file order (overrides last).
struct ConfigEntry {
  std::string section;
  std::string key;
  std::string value;
  /// Where the entry came from, for error messages: "line 12", or
  /// "override 'cache.size=16k'".
  std::string where;
};

/// What one config dialect accepts structurally.
struct ConfigSyntax {
  /// Names the input in every error: "<source> line 12: ...".
  std::string source;
  /// The sections that exist.  A name ending in "<k>" ("core<k>") stands
  /// for that prefix followed by a decimal index of up to six digits.
  std::vector<std::string> sections;
  /// Sections whose file lines are whole expressions rather than
  /// key = value pairs (a sweep spec's [filter], where '=' may belong to
  /// an operator): each line is kept, trimmed, in `key`.  Overrides of
  /// these sections still split at their first '='.
  std::vector<std::string> expression_sections;
};

/// Reads `is`, then applies `overrides`.  Throws ParseError
/// "<source> <where>: <reason>" on the first structural error.
std::vector<ConfigEntry> read_config(
    std::istream& is, const ConfigSyntax& syntax,
    const std::vector<std::string>& overrides = {});

/// As above, from a file; throws ParseError if it cannot be opened.
std::vector<ConfigEntry> load_config(
    const std::string& path, const ConfigSyntax& syntax,
    const std::vector<std::string>& overrides = {});

/// Decimal count with an optional k/K/m/M binary multiplier ("8k" =
/// 8192; parse_scaled_count, util/string_util.h).  Surrounding space is
/// trimmed.  Throws ParseError("<where>: ...") on anything else: a sign,
/// a 0x prefix, trailing text, or a value past 64 bits.
std::uint64_t parse_config_number(const std::string& s,
                                  const std::string& where);

/// Finite non-negative real number ("0.25"); "inf"/"nan" are rejected.
double parse_config_real(const std::string& s, const std::string& where);

/// "true/1/yes/on" or "false/0/no/off", case-insensitive.
bool parse_config_bool(const std::string& s, const std::string& where);

}  // namespace pcal
