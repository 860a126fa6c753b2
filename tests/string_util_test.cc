#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string_view>

namespace unidetect {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TokenizeCellTest, SplitsOnSeparatorsDropsEmpties) {
  EXPECT_EQ(TokenizeCell("Keane, Mr. Andrew"),
            (std::vector<std::string>{"Keane", "Mr.", "Andrew"}));
  EXPECT_EQ(TokenizeCell("  spaced   out  "),
            (std::vector<std::string>{"spaced", "out"}));
  EXPECT_TRUE(TokenizeCell("").empty());
  EXPECT_TRUE(TokenizeCell(" ,;: ").empty());
}

TEST(TokenizeCellTest, KeepsHyphensAndDots) {
  // Call signs and decimals survive as single tokens.
  EXPECT_EQ(TokenizeCell("WALA-TV"), (std::vector<std::string>{"WALA-TV"}));
  EXPECT_EQ(TokenizeCell("3.14"), (std::vector<std::string>{"3.14"}));
}

TEST(TrimTest, Whitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t a b \r\n"), "a b");
}

TEST(CaseTest, UpperLower) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("TokenIndex v1", "TokenIndex"));
  EXPECT_FALSE(StartsWith("Token", "TokenIndex"));
  EXPECT_TRUE(EndsWith("file.model", ".model"));
  EXPECT_FALSE(EndsWith(".model", "file.model"));
}

TEST(ParseNumericTest, PlainNumbers) {
  EXPECT_DOUBLE_EQ(*ParseNumeric("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseNumeric("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*ParseNumeric("  7.25  "), 7.25);
  EXPECT_DOUBLE_EQ(*ParseNumeric("+10"), 10.0);
}

TEST(ParseNumericTest, ThousandsSeparators) {
  EXPECT_DOUBLE_EQ(*ParseNumeric("8,011"), 8011.0);
  EXPECT_DOUBLE_EQ(*ParseNumeric("1,234,567"), 1234567.0);
  // The decimal-slip value of Figure 4(e) parses as a small float.
  EXPECT_DOUBLE_EQ(*ParseNumeric("8.716"), 8.716);
}

TEST(ParseNumericTest, Percentages) {
  EXPECT_DOUBLE_EQ(*ParseNumeric("43.2%"), 43.2);
  EXPECT_DOUBLE_EQ(*ParseNumeric("43.2 %"), 43.2);
}

TEST(ParseNumericTest, Rejections) {
  EXPECT_FALSE(ParseNumeric("").has_value());
  EXPECT_FALSE(ParseNumeric("abc").has_value());
  EXPECT_FALSE(ParseNumeric("12abc").has_value());
  EXPECT_FALSE(ParseNumeric("1,,2").has_value());
  EXPECT_FALSE(ParseNumeric(",12").has_value());
  EXPECT_FALSE(ParseNumeric("12,").has_value());
  EXPECT_FALSE(ParseNumeric("1.2.3").has_value());
  EXPECT_FALSE(ParseNumeric("%").has_value());
}

TEST(LooksLikeIntegerTest, Basic) {
  EXPECT_TRUE(LooksLikeInteger("42"));
  EXPECT_TRUE(LooksLikeInteger("-42"));
  EXPECT_TRUE(LooksLikeInteger("61,044"));
  EXPECT_FALSE(LooksLikeInteger("4.2"));
  EXPECT_FALSE(LooksLikeInteger("abc"));
  EXPECT_FALSE(LooksLikeInteger(""));
  EXPECT_FALSE(LooksLikeInteger("-"));
}

TEST(StringUtilTest, ParseUnsignedAcceptsWholeDecimalNumbers) {
  EXPECT_EQ(ParseUnsigned("0"), 0u);
  EXPECT_EQ(ParseUnsigned("8080"), 8080u);
  EXPECT_EQ(ParseUnsigned("007"), 7u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615"), UINT64_MAX);
}

TEST(StringUtilTest, ParseUnsignedRejectsWhatAtoiWouldTruncate) {
  for (const char* bad : {"", "-1", "+1", "-0", " 1", "1 ", "3x", "0x10",
                          "1.5", "1e3", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseUnsigned(bad).has_value()) << "'" << bad << "'";
  }
  // A NUL byte inside the view is a trailing byte, not a terminator.
  EXPECT_FALSE(ParseUnsigned(std::string_view("12\0" "3", 4)).has_value());
}

TEST(StringUtilTest, ParseUnsignedEnforcesTheRange) {
  EXPECT_EQ(ParseUnsigned("65535", 0, 65535), 65535u);
  EXPECT_FALSE(ParseUnsigned("65536", 0, 65535).has_value());
  EXPECT_FALSE(ParseUnsigned("70000", 0, 65535).has_value());
  EXPECT_EQ(ParseUnsigned("1", 1, 64), 1u);
  EXPECT_EQ(ParseUnsigned("64", 1, 64), 64u);
  EXPECT_FALSE(ParseUnsigned("0", 1, 64).has_value());
  EXPECT_FALSE(ParseUnsigned("65", 1, 64).has_value());
}

TEST(StringUtilTest, ParseNonNegativeDoubleAcceptsWholeNumbers) {
  EXPECT_EQ(ParseNonNegativeDouble("0.05"), 0.05);
  EXPECT_EQ(ParseNonNegativeDouble("1"), 1.0);
  EXPECT_EQ(ParseNonNegativeDouble("0"), 0.0);
  EXPECT_EQ(ParseNonNegativeDouble("5e-3"), 0.005);
  EXPECT_EQ(ParseNonNegativeDouble(".5"), 0.5);
}

TEST(StringUtilTest, ParseNonNegativeDoubleRejectsWhatAtofWouldTruncate) {
  for (const char* bad : {"", "x", "-1", "-0", "+1", " 1", "1 ", "0.05x",
                          "nan", "NaN", "-nan", "inf", "infinity", "1e999",
                          "0x10", ","}) {
    EXPECT_FALSE(ParseNonNegativeDouble(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(
      ParseNonNegativeDouble(std::string_view("0.5\0" "1", 5)).has_value());
}

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.25, 2), "0.25");
  EXPECT_EQ(FormatDouble(100.0, 0), "100");
}

TEST(StrCatTest, MixedPieces) {
  EXPECT_EQ(StrCat("a", std::string("b"), std::string_view("c"), 'd'), "abcd");
  EXPECT_EQ(StrCat("n=", 42, " m=", size_t{7}, " k=", -3), "n=42 m=7 k=-3");
  EXPECT_EQ(StrCat(), "");
}

TEST(StrCatTest, DoublesMatchOstreamDefaultFormat) {
  // StrCat explanations replaced ostringstream formatting in the
  // detectors; outputs must stay byte-identical across every double
  // shape the LR scores and metric values can take.
  for (double v : {0.0, 1.0, 0.25, 2.0 / 3.0, 1e-7, 123456.0, 1234567.0,
                   0.000123456789, 3.5e20, -0.0817, 17.125, 1e6}) {
    std::ostringstream os;
    os << v;
    EXPECT_EQ(StrCat(v), os.str()) << "v=" << v;
  }
}

TEST(StrAppendTest, AppendsInPlace) {
  std::string s = "LR=";
  StrAppend(&s, 0.5, " rows=", 12u);
  EXPECT_EQ(s, "LR=0.5 rows=12");
}

}  // namespace
}  // namespace unidetect
