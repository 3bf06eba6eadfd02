#include "util/string_util.h"

#include <gtest/gtest.h>

namespace pcal {
namespace {

TEST(Split, KeepsEmptyFields) {
  const auto v = split("a,,b,", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[2], "b");
  EXPECT_EQ(v[3], "");
}

TEST(Split, SingleField) {
  const auto v = split("abc", ',');
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "abc");
}

TEST(Split, EmptyInput) {
  const auto v = split("", ',');
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "");
}

TEST(Trim, RemovesWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_TRUE(starts_with("hello", ""));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_FALSE(starts_with("hello", "lo"));
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(FormatSize, ExactUnits) {
  EXPECT_EQ(format_size(0), "0B");
  EXPECT_EQ(format_size(512), "512B");
  EXPECT_EQ(format_size(1024), "1kB");
  EXPECT_EQ(format_size(8 * 1024), "8kB");
  EXPECT_EQ(format_size(8 * 1024 + 1), "8193B");
  EXPECT_EQ(format_size(2 * 1024 * 1024), "2MB");
}

TEST(ParseCount, PlainDecimalsOnly) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("010000"), 10000u);  // decimal, not octal
  EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "100k", "2e4",
                          "5s", "1x", "18446744073709551616"})
    EXPECT_FALSE(parse_count(bad).has_value()) << "'" << bad << "'";
}

TEST(ParseScaledCount, BinaryMultipliers) {
  EXPECT_EQ(parse_scaled_count("8k"), 8192u);
  EXPECT_EQ(parse_scaled_count("2M"), 2u * 1024 * 1024);
  EXPECT_EQ(parse_scaled_count("17592186044415m"),
            17'592'186'044'415u * 1024u * 1024u);
  for (const char* bad : {"k", "8kb", "8G", "0x10k", "-1k",
                          "17592186044416M", "18014398509481984k"})
    EXPECT_FALSE(parse_scaled_count(bad).has_value()) << "'" << bad << "'";
}

}  // namespace
}  // namespace pcal
