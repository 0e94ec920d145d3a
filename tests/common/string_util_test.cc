#include "common/string_util.h"

#include <gtest/gtest.h>

namespace cpclean {
namespace {

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> pieces = {"x", "", "yz"};
  EXPECT_EQ(Join(pieces, ","), "x,,yz");
  EXPECT_EQ(Split(Join(pieces, ","), ','), pieces);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StripTest, RemovesBothEnds) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("xyz"), "xyz");
}

TEST(CaseTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ba", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(ParseDoubleTest, AcceptsNumbersRejectsGarbage) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -2e3 ").value(), -2000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("12x").ok());
  EXPECT_FALSE(ParseDouble("rome").ok());
}

TEST(ParseIntTest, AcceptsIntsRejectsGarbageAndOverflow) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt("4.5").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999").ok());
}

TEST(ParseUint64Test, AcceptsDigitsOnly) {
  EXPECT_EQ(ParseUint64("0", 10).value(), 0u);
  EXPECT_EQ(ParseUint64("18446744073709551615", 10).value(), UINT64_MAX);
  EXPECT_EQ(ParseUint64("00ff", 16).value(), 255u);
  EXPECT_EQ(ParseUint64("ffffffffffffffff", 16).value(), UINT64_MAX);
  // No sign, no whitespace, no trailing bytes, no empty input.
  for (const char* bad : {"-1", "+1", " 1", "1 ", "1x", "", "0x10"}) {
    const Result<uint64_t> parsed = ParseUint64(bad, 10);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << bad;
  }
  EXPECT_FALSE(ParseUint64("-1", 16).ok());
  EXPECT_FALSE(ParseUint64("abcg", 16).ok());
  // Overflow is a ParseError, never a wrapped or saturated value.
  EXPECT_EQ(ParseUint64("18446744073709551616", 10).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseUint64("10000000000000000", 16).status().code(),
            StatusCode::kParseError);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace cpclean
