#include "util/config_file.h"

#include <cmath>
#include <fstream>

#include "util/error.h"
#include "util/string_util.h"

namespace pcal {
namespace {

/// True iff `section` is one of the dialect's sections; "core<k>"
/// matches "core" followed by one to six decimal digits.
bool section_exists(const ConfigSyntax& syntax, const std::string& section) {
  constexpr std::string_view kIndex = "<k>";
  for (const std::string_view name : syntax.sections) {
    if (section == name) return true;
    if (name.size() <= kIndex.size() ||
        name.substr(name.size() - kIndex.size()) != kIndex)
      continue;
    const std::string_view prefix = name.substr(0, name.size() - kIndex.size());
    if (!starts_with(section, prefix)) continue;
    const std::string_view index =
        std::string_view(section).substr(prefix.size());
    if (!index.empty() && index.size() <= 6 &&
        index.find_first_not_of("0123456789") == std::string_view::npos)
      return true;
  }
  return false;
}

/// "[grid], [sweep] or [filter]".
std::string sections_hint(const ConfigSyntax& syntax) {
  std::string out;
  const std::size_t n = syntax.sections.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += i + 1 == n ? " or " : ", ";
    out += "[" + syntax.sections[i] + "]";
  }
  return out;
}

}  // namespace

std::vector<ConfigEntry> read_config(
    std::istream& is, const ConfigSyntax& syntax,
    const std::vector<std::string>& overrides) {
  const auto fail = [&](const std::string& where, const std::string& msg) {
    throw ParseError(syntax.source + " " + where + ": " + msg);
  };
  const auto check_section = [&](const std::string& where,
                                 const std::string& section) {
    if (!section_exists(syntax, section))
      fail(where, "unknown section [" + section + "] (expected " +
                      sections_hint(syntax) + ")");
  };
  std::vector<ConfigEntry> entries;
  const auto find = [&](const ConfigEntry& e) -> ConfigEntry* {
    for (ConfigEntry& prev : entries)
      if (prev.section == e.section && prev.key == e.key) return &prev;
    return nullptr;
  };

  // ---- the file: ordered entries, strict on structure ----
  std::string line, section;
  bool expressions = false;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string where = "line " + std::to_string(lineno);
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '#' || t.front() == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3)
        fail(where, "malformed section header");
      section = std::string(trim(t.substr(1, t.size() - 2)));
      check_section(where, section);
      expressions = false;
      for (const std::string& s : syntax.expression_sections)
        expressions = expressions || s == section;
      continue;
    }
    ConfigEntry e;
    e.section = section;
    e.where = where;
    if (expressions) {
      e.key = std::string(t);
      if (const ConfigEntry* prev = find(e))
        fail(where, "duplicate [" + section + "] line '" + e.key +
                        "' (first defined at " + prev->where + ")");
    } else {
      const std::size_t eq = t.find('=');
      if (eq == std::string_view::npos) fail(where, "expected 'key = value'");
      if (section.empty()) fail(where, "key before any [section] header");
      e.key = std::string(trim(t.substr(0, eq)));
      e.value = std::string(trim(t.substr(eq + 1)));
      if (e.key.empty()) fail(where, "empty key");
      if (const ConfigEntry* prev = find(e))
        fail(where, "duplicate key '" + section + "." + e.key +
                        "' (first defined at " + prev->where + ")");
    }
    entries.push_back(std::move(e));
  }

  // ---- overrides: replace in place, or append as a new entry ----
  for (const std::string& o : overrides) {
    const std::string where = "override '" + o + "'";
    const std::size_t eq = o.find('=');
    const std::size_t dot = o.find('.');
    if (eq == std::string::npos || dot == std::string::npos || dot > eq)
      fail(where, "override must look like section.key=value");
    const std::string_view text = o;
    ConfigEntry e;
    e.section = std::string(trim(text.substr(0, dot)));
    e.key = std::string(trim(text.substr(dot + 1, eq - dot - 1)));
    e.value = std::string(trim(text.substr(eq + 1)));
    e.where = where;
    check_section(where, e.section);
    if (e.key.empty()) fail(where, "empty key");
    if (ConfigEntry* prev = find(e)) {
      prev->value = e.value;
      prev->where = where;
    } else {
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

std::vector<ConfigEntry> load_config(
    const std::string& path, const ConfigSyntax& syntax,
    const std::vector<std::string>& overrides) {
  std::ifstream f(path);
  if (!f) throw ParseError("cannot open config file: " + path);
  return read_config(f, syntax, overrides);
}

std::uint64_t parse_config_number(const std::string& s,
                                  const std::string& where) {
  if (const auto value = parse_scaled_count(trim(s))) return *value;
  throw ParseError(where + ": '" + s +
                   "' is not a non-negative integer (a decimal count with "
                   "an optional k/M multiplier, below 2^64)");
}

double parse_config_real(const std::string& s, const std::string& where) {
  const std::string t{trim(s)};
  try {
    std::size_t consumed = 0;
    const double v = std::stod(t, &consumed);
    if (consumed == t.size() && std::isfinite(v) && v >= 0.0) return v;
  } catch (const std::exception&) {
  }
  throw ParseError(where + ": '" + s +
                   "' is not a finite non-negative real number");
}

bool parse_config_bool(const std::string& s, const std::string& where) {
  const std::string lower = to_lower(std::string(trim(s)));
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on")
    return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off")
    return false;
  throw ParseError(where + ": '" + s + "' is not a boolean");
}

}  // namespace pcal
