// Unit tests for the table emitter.

#include "src/common/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace sfs::common {
namespace {

TEST(TableTest, CellFormatting) {
  EXPECT_EQ(Table::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Cell(3.14159, 4), "3.1416");
  EXPECT_EQ(Table::Cell(static_cast<std::int64_t>(-42)), "-42");
  EXPECT_EQ(Table::Cell(static_cast<std::size_t>(7)), "7");
}

TEST(TableTest, PrintAlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, RowCountTracks) {
  Table t({"c"});
  EXPECT_EQ(t.row_count(), 0u);
  t.AddRow({"v"});
  EXPECT_EQ(t.row_count(), 1u);
}

}  // namespace
}  // namespace sfs::common
