#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pjsb::util {
namespace {

TEST(Table, RenderContainsCells) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(3.14159, 2);
  t.row().cell("beta").cell(std::int64_t{42});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell("x").cell("y");
  EXPECT_EQ(t.to_csv(), "a,b\nx,y\n");
}

TEST(Table, CellAccess) {
  Table t({"a", "b"});
  t.row().cell("x").cell("y");
  EXPECT_EQ(t.at(0, 0), "x");
  EXPECT_EQ(t.at(0, 1), "y");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("ok");
  EXPECT_THROW(t.cell("overflow"), std::logic_error);
}

TEST(Table, EmptyHeadersThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, PrintToStream) {
  Table t({"h"});
  t.row().cell("v");
  std::ostringstream os;
  t.print(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(Table, ToJsonQuotesNonJsonNumericLookalikes) {
  // Strings that strtod would parse but that are not valid JSON number
  // tokens must be emitted quoted, or the document is unparseable.
  Table t({"a", "b", "c", "d", "e", "f"});
  t.row()
      .cell("007")
      .cell("+5")
      .cell(".5")
      .cell("5.")
      .cell("inf")
      .cell("1e5");
  const auto json = t.to_json();
  EXPECT_NE(json.find("\"a\": \"007\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"b\": \"+5\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"c\": \".5\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"d\": \"5.\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"e\": \"inf\""), std::string::npos) << json;
  // ...while genuine JSON numbers stay unquoted.
  EXPECT_NE(json.find("\"f\": 1e5"), std::string::npos) << json;
}

TEST(Table, ToJsonEscapesControlCharacters) {
  Table t({"a\rb"});
  t.row().cell("x\x01y");
  EXPECT_EQ(t.to_json(), "[{\"a\\rb\": \"x\\u0001y\"}]");
}

TEST(Table, ToJsonEmitsNumbersAndNegatives) {
  Table t({"x", "y", "z"});
  t.row().cell(std::int64_t(-3)).cell(0.25, 2).cell("-0.5");
  const auto json = t.to_json();
  EXPECT_NE(json.find("\"x\": -3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"y\": 0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"z\": -0.5"), std::string::npos) << json;
}

TEST(FormatDuration, Shapes) {
  EXPECT_EQ(format_duration(5), "5s");
  EXPECT_EQ(format_duration(65), "1m05s");
  EXPECT_EQ(format_duration(3600), "1h00m");
  EXPECT_EQ(format_duration(7325), "2h02m");
  EXPECT_EQ(format_duration(-65), "-1m05s");
}

}  // namespace
}  // namespace pjsb::util
