#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace odn::util {
namespace {

TEST(Table, HeaderAndRows) {
  Table table("demo");
  table.set_header({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"b", "2"});
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.column_count(), 2u);
  EXPECT_EQ(table.title(), "demo");
}

TEST(Table, RowWidthMismatchThrows) {
  Table table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, RowBeforeHeaderThrows) {
  Table table;
  EXPECT_THROW(table.add_row({"x"}), std::logic_error);
}

TEST(Table, HeaderAfterRowsThrows) {
  Table table;
  table.set_header({"a"});
  table.add_row({"1"});
  EXPECT_THROW(table.set_header({"b"}), std::logic_error);
}

TEST(Table, PrintAlignsColumns) {
  Table table;
  table.set_header({"x", "longer"});
  table.add_row({"wide-cell", "1"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  // Header line must pad "x" to the widest cell in its column.
  const std::size_t header_end = text.find('\n');
  const std::size_t rule_end = text.find('\n', header_end + 1);
  const std::string header = text.substr(0, header_end);
  const std::string rule = text.substr(header_end + 1,
                                       rule_end - header_end - 1);
  EXPECT_NE(header.find("x          longer"), std::string::npos);
  EXPECT_EQ(rule.find_first_not_of('-'), std::string::npos);
}

TEST(Table, PrintIncludesTitle) {
  Table table("My Figure");
  table.set_header({"c"});
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("== My Figure =="), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, PctFormatsFraction) {
  EXPECT_EQ(Table::pct(0.825, 1), "82.5%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Table, StreamOperator) {
  Table table;
  table.set_header({"h"});
  table.add_row({"v"});
  std::ostringstream out;
  out << table;
  EXPECT_NE(out.str().find("h"), std::string::npos);
  EXPECT_NE(out.str().find("v"), std::string::npos);
}

}  // namespace
}  // namespace odn::util
