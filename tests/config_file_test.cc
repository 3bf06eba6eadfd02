#include "util/config_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"

namespace pcal {
namespace {

const ConfigSyntax kSyntax{"test.ini", {"cache", "partition", "core<k>"}, {}};

std::vector<ConfigEntry> read(const std::string& text,
                              const std::vector<std::string>& overrides = {},
                              const ConfigSyntax& syntax = kSyntax) {
  std::istringstream is(text);
  return read_config(is, syntax, overrides);
}

/// The ParseError message of reading `text`, or "" when it parses.
std::string error_of(const std::string& text,
                     const std::vector<std::string>& overrides = {}) {
  try {
    read(text, overrides);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigReader, OrderedEntriesAndComments) {
  const std::vector<ConfigEntry> entries = read(
      "# comment\n"
      "[cache]\n"
      "size = 8k\n"
      "line=16\n"
      "\n"
      "; another comment\n"
      "[partition]\n"
      "  banks  =  4  \n"
      "[core12]\n"
      "workload = trace:a#b.pct\n");
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].section, "cache");
  EXPECT_EQ(entries[0].key, "size");
  EXPECT_EQ(entries[0].value, "8k");
  EXPECT_EQ(entries[0].where, "line 3");
  EXPECT_EQ(entries[1].key, "line");
  EXPECT_EQ(entries[1].value, "16");
  EXPECT_EQ(entries[2].section, "partition");
  EXPECT_EQ(entries[2].key, "banks");
  EXPECT_EQ(entries[2].value, "4");
  EXPECT_EQ(entries[2].where, "line 8");
  // Only whole-line comments: a value keeps its '#'.
  EXPECT_EQ(entries[3].section, "core12");
  EXPECT_EQ(entries[3].value, "trace:a#b.pct");
}

TEST(ConfigReader, MalformedStructureNamesTheLine) {
  const std::string header = error_of("[cache]\nsize = 8k\n[unclosed\n");
  EXPECT_NE(header.find("test.ini line 3"), std::string::npos) << header;
  EXPECT_NE(header.find("malformed section header"), std::string::npos)
      << header;
  const std::string before = error_of("size = 8k\n[cache]\n");
  EXPECT_NE(before.find("test.ini line 1"), std::string::npos) << before;
  EXPECT_NE(before.find("key before any [section] header"),
            std::string::npos)
      << before;
  const std::string empty = error_of("[cache]\n= 8k\n");
  EXPECT_NE(empty.find("line 2: empty key"), std::string::npos) << empty;
  const std::string no_eq = error_of("[cache]\nsize 8k\n");
  EXPECT_NE(no_eq.find("line 2: expected 'key = value'"), std::string::npos)
      << no_eq;
}

TEST(ConfigReader, UnknownSectionListsTheKnownOnes) {
  const std::string what = error_of("[cache]\nsize = 8k\n[bogus]\nk = 1\n");
  EXPECT_NE(what.find("test.ini line 3: unknown section [bogus]"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("[cache], [partition] or [core<k>]"), std::string::npos)
      << what;
  // "core<k>" admits a decimal index and nothing else.
  EXPECT_NE(error_of("[core]\nworkload = sha\n"), "");
  EXPECT_NE(error_of("[corex]\nworkload = sha\n"), "");
  EXPECT_NE(error_of("[core1234567]\nworkload = sha\n"), "");
  EXPECT_EQ(error_of("[core0]\nworkload = sha\n"), "");
}

TEST(ConfigReader, DuplicateKeyNamesBothLines) {
  const std::string what =
      error_of("[cache]\nsize = 8k\nline = 16\nsize = 16k\n");
  EXPECT_NE(what.find("test.ini line 4: duplicate key 'cache.size'"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("first defined at line 2"), std::string::npos) << what;
  // The same key in another section is a different entry.
  EXPECT_EQ(read("[cache]\nsize = 8k\n[partition]\nsize = 2\n").size(), 2u);
}

TEST(ConfigReader, OverridesReplaceOrAppend) {
  const std::vector<ConfigEntry> entries =
      read("[cache]\nsize = 8k\nline = 16\n",
           {"cache.size=16k", " partition . banks = 8 ", "core1.workload=sha"});
  ASSERT_EQ(entries.size(), 4u);
  // Replaced in place: file order is kept, the location is the override.
  EXPECT_EQ(entries[0].key, "size");
  EXPECT_EQ(entries[0].value, "16k");
  EXPECT_EQ(entries[0].where, "override 'cache.size=16k'");
  EXPECT_EQ(entries[1].value, "16");
  EXPECT_EQ(entries[2].section, "partition");
  EXPECT_EQ(entries[2].key, "banks");
  EXPECT_EQ(entries[2].value, "8");
  EXPECT_EQ(entries[3].section, "core1");
  // A later override replaces an earlier one.
  const std::vector<ConfigEntry> twice =
      read("[cache]\n", {"cache.size=16k", "cache.size=32k"});
  ASSERT_EQ(twice.size(), 1u);
  EXPECT_EQ(twice[0].value, "32k");
}

TEST(ConfigReader, MalformedOverridesNameTheOverride) {
  for (const std::string bad : {"no-dot=1", "cache.size", "a=b.c", ".x=1"}) {
    const std::string what = error_of("[cache]\n", {bad});
    EXPECT_NE(what.find("test.ini override '" + bad + "'"), std::string::npos)
        << what;
  }
  const std::string section = error_of("[cache]\n", {"bogus.section=1"});
  EXPECT_NE(section.find("override 'bogus.section=1': unknown section "
                         "[bogus]"),
            std::string::npos)
      << section;
  EXPECT_NE(error_of("[cache]\n", {"cache.=1"}).find("empty key"),
            std::string::npos);
}

TEST(ConfigReader, ExpressionSectionsKeepWholeLines) {
  const ConfigSyntax syntax{"spec", {"sweep", "filter"}, {"filter"}};
  const std::vector<ConfigEntry> entries =
      read("[filter]\nbanks <= 8\nbanks != 2\n", {"filter.banks<4="}, syntax);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "banks <= 8");
  EXPECT_EQ(entries[0].value, "");
  EXPECT_EQ(entries[1].key, "banks != 2");
  // Overrides still split at their first '='.
  EXPECT_EQ(entries[2].key, "banks<4");
  EXPECT_EQ(entries[2].value, "");
  try {
    read("[filter]\nbanks <= 8\nbanks <= 8\n", {}, syntax);
    FAIL() << "duplicate expression accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("spec line 3: duplicate [filter] "
                                         "line 'banks <= 8' (first defined "
                                         "at line 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigReader, MissingFileThrows) {
  try {
    load_config("/nonexistent/pcal.ini", kSyntax);
    FAIL() << "missing file accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/pcal.ini"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigNumber, DecimalsAndSuffixes) {
  EXPECT_EQ(parse_config_number("8k", "k"), 8192u);
  EXPECT_EQ(parse_config_number("8K", "k"), 8192u);
  EXPECT_EQ(parse_config_number("2m", "k"), 2u * 1024 * 1024);
  EXPECT_EQ(parse_config_number("2M", "k"), 2u * 1024 * 1024);
  // A leading zero is decimal, not octal.
  EXPECT_EQ(parse_config_number("010000", "k"), 10000u);
  EXPECT_EQ(parse_config_number("010k", "k"), 10u * 1024);
  EXPECT_EQ(parse_config_number(" 42 ", "k"), 42u);
  EXPECT_EQ(parse_config_number("18446744073709551615", "k"), UINT64_MAX);
  // 2^34 M = 2^54: large, but inside 64 bits.
  EXPECT_EQ(parse_config_number("17179869184M", "k"), std::uint64_t{1} << 54);
}

TEST(ConfigNumber, RejectsSignsTextAndOverflowNamingTheKey) {
  for (const std::string bad :
       {"-1", "-0", "", "8kb", "8G", "1.5", "zzz", "0x", "0x10", "0x3000",
        "+1", "k"}) {
    try {
      parse_config_number(bad, "key 'cache_size'");
      FAIL() << "'" << bad << "' accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("key 'cache_size': '" + bad +
                                           "' is not a non-negative integer"),
                std::string::npos)
          << e.what();
    }
  }
  // Past 64 bits, before or after the multiplier.
  for (const std::string big :
       {"18446744073709551616", "17592186044416M", "18014398509481984k"}) {
    try {
      parse_config_number(big, "key 'accesses'");
      FAIL() << "'" << big << "' accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("key 'accesses': '" + big + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigNumber, RealsAndBools) {
  EXPECT_DOUBLE_EQ(parse_config_real("0.25", "k"), 0.25);
  EXPECT_THROW(parse_config_real("-0.5", "k"), ParseError);
  EXPECT_THROW(parse_config_real("inf", "k"), ParseError);
  EXPECT_THROW(parse_config_real("nan", "k"), ParseError);
  EXPECT_THROW(parse_config_real("0.25x", "k"), ParseError);
  EXPECT_TRUE(parse_config_bool("true", "k"));
  EXPECT_TRUE(parse_config_bool("On", "k"));
  EXPECT_TRUE(parse_config_bool("1", "k"));
  EXPECT_FALSE(parse_config_bool("off", "k"));
  EXPECT_FALSE(parse_config_bool("NO", "k"));
  EXPECT_THROW(parse_config_bool("zzz", "k"), ParseError);
}

}  // namespace
}  // namespace pcal
