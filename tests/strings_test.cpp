#include "rpslyzer/util/strings.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace rpslyzer::util {
namespace {

TEST(Strings, LowerUpper) {
  EXPECT_EQ(lower("AS-Foo_123"), "as-foo_123");
  EXPECT_EQ(upper("as-foo_123"), "AS-FOO_123");
  EXPECT_EQ(lower(""), "");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("IMPORT", "import"));
  EXPECT_TRUE(iequals("PeerAS", "peeras"));
  EXPECT_FALSE(iequals("import", "imports"));
  EXPECT_FALSE(iequals("import", "export"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, IStartsEndsWith) {
  EXPECT_TRUE(istarts_with("AS-HANABI", "as-"));
  EXPECT_FALSE(istarts_with("AS", "AS-"));
  EXPECT_TRUE(iends_with("foo.unicast", ".UNICAST"));
  EXPECT_FALSE(iends_with("uni", "unicast"));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\r\n"), "");
  EXPECT_EQ(trim_left("  x "), "x ");
  EXPECT_EQ(trim_right("  x "), "  x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  auto parts = split_ws("  from\tAS1   accept ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "from");
  EXPECT_EQ(parts[1], "AS1");
  EXPECT_EQ(parts[2], "accept");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, ParseU32) {
  EXPECT_EQ(parse_u32("0"), 0u);
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  EXPECT_EQ(parse_u32("4294967296"), std::nullopt);  // overflow
  EXPECT_EQ(parse_u32("12345678901"), std::nullopt);  // too long
  EXPECT_EQ(parse_u32(""), std::nullopt);
  EXPECT_EQ(parse_u32("-1"), std::nullopt);
  EXPECT_EQ(parse_u32("+1"), std::nullopt);
  EXPECT_EQ(parse_u32("12x"), std::nullopt);
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_EQ(parse_u64("18446744073709551616"), std::nullopt);  // overflow
  EXPECT_EQ(parse_u64("99999999999999999999"), std::nullopt);  // overflow, max width
  EXPECT_EQ(parse_u64("123456789012345678901"), std::nullopt);  // too long
  EXPECT_EQ(parse_u64(""), std::nullopt);
  EXPECT_EQ(parse_u64("-1"), std::nullopt);
  EXPECT_EQ(parse_u64("1 "), std::nullopt);
}

TEST(Strings, ParseU8) {
  EXPECT_EQ(parse_u8("255"), 255);
  EXPECT_EQ(parse_u8("256"), std::nullopt);
}

TEST(Strings, CaseInsensitiveHashSet) {
  std::unordered_set<std::string, IHash, IEqual> set;
  set.insert("AS-FOO");
  EXPECT_TRUE(set.contains("as-foo"));
  EXPECT_TRUE(set.contains(std::string_view("As-FoO")));
  EXPECT_FALSE(set.contains("as-bar"));
}

TEST(Strings, ILessOrdersCaseInsensitively) {
  ILess less;
  EXPECT_TRUE(less("apple", "Banana"));
  EXPECT_FALSE(less("Banana", "apple"));
  EXPECT_FALSE(less("AS-FOO", "as-foo"));
  EXPECT_FALSE(less("as-foo", "AS-FOO"));
  EXPECT_TRUE(less("AS-FO", "as-foo"));  // shorter prefix sorts first
}

}  // namespace
}  // namespace rpslyzer::util
