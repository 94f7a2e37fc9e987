// Unit tests for src/util: contracts, CLI parsing, table/CSV formatting, math.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/math.hpp"

namespace lbsim::util {
namespace {

// ---------- error.hpp ----------

TEST(ErrorTest, RequireThrowsInvalidArgumentWithDetail) {
  try {
    LBSIM_REQUIRE(1 == 2, "one is " << 1);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("one is 1"), std::string::npos);
  }
}

TEST(ErrorTest, CheckThrowsLogicError) {
  EXPECT_THROW(LBSIM_CHECK(false, "broken"), std::logic_error);
}

TEST(ErrorTest, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(LBSIM_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(LBSIM_CHECK(true, "fine"));
}

// ---------- cli.hpp ----------

TEST(CliTest, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--gain=0.35", "--nodes=2"};
  const CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("gain", 0.0), 0.35);
  EXPECT_EQ(args.get_string("nodes", ""), "2");
}

TEST(CliTest, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--seed", "42"};
  const CliArgs args(3, argv);
  EXPECT_EQ(args.get_string("seed", ""), "42");
}

TEST(CliTest, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--quick"};
  const CliArgs args(2, argv);
  EXPECT_TRUE(args.get_bool("quick", false));
  EXPECT_TRUE(args.has("quick"));
}

TEST(CliTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_string("missing", "x"), "x");
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliTest, PositionalArgumentsKeepOrder) {
  const char* argv[] = {"prog", "a", "--k=1", "b"};
  const CliArgs args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "a");
  EXPECT_EQ(args.positional()[1], "b");
}

TEST(CliTest, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--gain=abc", "--n=1.5x"};
  const CliArgs args(3, argv);
  EXPECT_THROW((void)args.get_double("gain", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("n", 0.0), std::invalid_argument);
}

TEST(CliTest, OutOfRangeNumbersNameTheFlag) {
  const char* argv[] = {"prog", "--sigma=1e999"};
  const CliArgs args(2, argv);
  const auto message = [](const auto& get) -> std::string {
    try {
      (void)get();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message([&] { return args.get_double("sigma", 0.0); }),
            "flag --sigma is out of the double range, got '1e999'");
}

TEST(CliTest, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=0", "--c=off"};
  const CliArgs args(4, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
}

// ---------- format.hpp ----------

TEST(FormatTest, FormatDoubleFixedDigits) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_THROW(format_double(1.0, -1), std::invalid_argument);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"K", "mean"});
  table.add_row({"0.35", "116.75"});
  table.add_row({"1", "172"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("K     mean"), std::string::npos);
  EXPECT_NE(out.find("0.35  116.75"), std::string::npos);
}

TEST(TextTableTest, RejectsWrongArity) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTableTest, CsvEscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(TextTableTest, CsvRoundTripsRows) {
  TextTable table({"x", "y"});
  table.add_row({"1", "2,3"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,\"2,3\"\n");
}

// ---------- math.hpp ----------

TEST(MathTest, LinspaceEndpointsExact) {
  const auto v = linspace(0.0, 1.0, 21);
  ASSERT_EQ(v.size(), 21u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_NEAR(v[10], 0.5, 1e-12);
}

TEST(MathTest, LinspaceSinglePoint) {
  const auto v = linspace(3.0, 9.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
}

TEST(MathTest, KahanSumBeatsNaiveOnSmallAddends) {
  KahanSum sum;
  sum.add(1.0);
  for (int i = 0; i < 10'000'000; ++i) sum.add(1e-16);
  EXPECT_NEAR(sum.value(), 1.0 + 1e-9, 1e-12);
}

TEST(MathTest, TrapezoidIntegratesLine) {
  // integral of y = x over [0,1] with 11 samples = 0.5 exactly (trapezoid is
  // exact for linear functions).
  std::vector<double> y(11);
  for (int i = 0; i <= 10; ++i) y[i] = i / 10.0;
  EXPECT_NEAR(trapezoid(y, 0.1), 0.5, 1e-12);
}

TEST(MathTest, TryParseDoubleFullMatchFiniteOnly) {
  ASSERT_TRUE(util::try_parse_double("1.5").has_value());
  EXPECT_DOUBLE_EQ(*util::try_parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*util::try_parse_double("-2e3"), -2000.0);
  EXPECT_FALSE(util::try_parse_double("").has_value());
  EXPECT_FALSE(util::try_parse_double("1.5x").has_value());
  EXPECT_FALSE(util::try_parse_double("abc").has_value());
  EXPECT_FALSE(util::try_parse_double("1e999").has_value());  // ERANGE
  // strtod parses these without ERANGE, but no config value may be non-finite
  // (NaN would defeat every downstream range check).
  EXPECT_FALSE(util::try_parse_double("inf").has_value());
  EXPECT_FALSE(util::try_parse_double("nan").has_value());
  EXPECT_FALSE(util::try_parse_double("-inf").has_value());
}

}  // namespace
}  // namespace lbsim::util
