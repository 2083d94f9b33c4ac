#include "util/string_util.hpp"

#include <gtest/gtest.h>

namespace pjsb::util {
namespace {

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(StringUtil, SplitWs) {
  const auto t = split_ws("  a\tb   c ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "b");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto t = split("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[2], "b");
  EXPECT_EQ(t[3], "");
}

TEST(StringUtil, ParseI64) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-1"), -1);
  EXPECT_EQ(parse_i64(" 7 "), 7);
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("12x"));
  EXPECT_FALSE(parse_i64("x12"));
  EXPECT_FALSE(parse_i64("1.5"));
  EXPECT_FALSE(parse_i64("--3"));
}

TEST(StringUtil, ParseF64) {
  EXPECT_DOUBLE_EQ(*parse_f64("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*parse_f64("-2"), -2.0);
  EXPECT_FALSE(parse_f64("abc"));
  EXPECT_FALSE(parse_f64(""));
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("hello world", "hello"));
  EXPECT_FALSE(starts_with("hello", "hello world"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringUtil, JsonEscapeEscapesEveryControlCharacter) {
  EXPECT_EQ(json_escape("easy reserve_depth=2"), "easy reserve_depth=2");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\t"), "\\n\\t");
  // Raw control characters are not valid inside a JSON string.
  EXPECT_EQ(json_escape("\r"), "\\r");
  EXPECT_EQ(json_escape("\b"), "\\u0008");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("x\x1fy"), "x\\u001fy");
  EXPECT_EQ(json_escape(std::string("a\0b", 3)), "a\\u0000b");
}

}  // namespace
}  // namespace pjsb::util
