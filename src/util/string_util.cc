#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <sstream>

namespace pcal {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string basename_of(std::string_view path) {
  return std::string(path.substr(path.find_last_of('/') + 1));
}

std::optional<std::uint64_t> parse_count(std::string_view s) {
  std::uint64_t value = 0;
  const char* end = s.data() + s.size();
  // from_chars reads digits only: no sign, space or base prefix, and an
  // overflowing count is an error, not a saturated value.
  const auto [stop, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_scaled_count(std::string_view s) {
  const char unit = s.empty() ? '\0' : s.back();
  const std::uint64_t scale = unit == 'k' || unit == 'K'   ? 1024
                              : unit == 'm' || unit == 'M' ? 1024 * 1024
                                                           : 1;
  if (scale != 1) s.remove_suffix(1);
  const std::optional<std::uint64_t> count = parse_count(s);
  if (!count || *count > std::numeric_limits<std::uint64_t>::max() / scale)
    return std::nullopt;
  return *count * scale;
}

std::string format_size(std::uint64_t bytes) {
  std::ostringstream os;
  if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
    os << bytes / (1024 * 1024) << "MB";
  else if (bytes >= 1024 && bytes % 1024 == 0)
    os << bytes / 1024 << "kB";
  else
    os << bytes << "B";
  return os.str();
}

}  // namespace pcal
