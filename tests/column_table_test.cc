#include "table/column.h"
#include "table/table.h"

#include <gtest/gtest.h>

namespace unidetect {
namespace {

Column MakeColumn(std::vector<std::string> cells) {
  return Column("c", std::move(cells));
}

TEST(ColumnTest, TypeInferenceMajority) {
  EXPECT_EQ(MakeColumn({"1", "2", "3"}).type(), ColumnType::kInteger);
  EXPECT_EQ(MakeColumn({"1", "2.5", "3"}).type(), ColumnType::kFloat);
  EXPECT_EQ(MakeColumn({"a", "b", "c"}).type(), ColumnType::kString);
  EXPECT_EQ(MakeColumn({"2015-04-01", "2015-05-26", "2016-01-01"}).type(),
            ColumnType::kDate);
  EXPECT_EQ(MakeColumn({"A1", "B2", "C3"}).type(), ColumnType::kMixedAlnum);
}

TEST(ColumnTest, NumericColumnToleratesFewStrings) {
  // "Unknown" markers in numeric columns do not flip the type.
  Column col = MakeColumn({"1", "2", "3", "4", "5", "6", "7", "8", "9", "n/a"});
  EXPECT_EQ(col.type(), ColumnType::kInteger);
}

TEST(ColumnTest, MixedColumnIsString) {
  Column col = MakeColumn({"1", "2", "a", "b", "c", "d"});
  EXPECT_EQ(col.type(), ColumnType::kString);
}

TEST(ColumnTest, EmptyColumnUnknown) {
  EXPECT_EQ(MakeColumn({}).type(), ColumnType::kUnknown);
  EXPECT_EQ(MakeColumn({"", " "}).type(), ColumnType::kUnknown);
}

TEST(ColumnTest, NumericValuesAlignedWithRows) {
  Column col = MakeColumn({"10", "x", "", "20"});
  EXPECT_EQ(col.NumericValues(), (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(col.NumericRows(), (std::vector<size_t>{0, 3}));
  // 3 non-empty cells, 2 numeric.
  EXPECT_NEAR(col.NumericFraction(), 2.0 / 3.0, 1e-12);
}

TEST(ColumnTest, NumericValuesParseCommasAndPercent) {
  Column col = MakeColumn({"8,011", "43.2%", "8.716"});
  EXPECT_EQ(col.NumericValues(),
            (std::vector<double>{8011.0, 43.2, 8.716}));
}

TEST(ColumnTest, SetCellInvalidatesCaches) {
  Column col = MakeColumn({"1", "2", "3"});
  EXPECT_EQ(col.type(), ColumnType::kInteger);
  EXPECT_EQ(col.NumericRows(), (std::vector<size_t>{0, 1, 2}));
  col.SetCell(0, "abc");
  col.SetCell(1, "def");
  EXPECT_EQ(col.type(), ColumnType::kString);
  EXPECT_EQ(col.NumericValues().size(), 1u);
  EXPECT_EQ(col.NumericRows(), (std::vector<size_t>{2}));
}

TEST(ColumnTest, AppendInvalidatesCaches) {
  Column col = MakeColumn({"1"});
  EXPECT_EQ(col.NumericValues().size(), 1u);
  EXPECT_EQ(col.NumericRows().size(), 1u);
  col.Append("2");
  EXPECT_EQ(col.NumericValues().size(), 2u);
  EXPECT_EQ(col.NumericRows(), (std::vector<size_t>{0, 1}));
}

TEST(ColumnTest, NumDistinct) {
  EXPECT_EQ(MakeColumn({"a", "b", "a", "c"}).NumDistinct(), 3u);
  EXPECT_EQ(MakeColumn({}).NumDistinct(), 0u);
}

TEST(ColumnTest, WithoutRows) {
  Column col = MakeColumn({"a", "b", "c", "d"});
  Column reduced = col.WithoutRows({1, 3});
  EXPECT_EQ(reduced.cells(), (std::vector<std::string>{"a", "c"}));
  // Unsorted and out-of-range rows are tolerated.
  Column reduced2 = col.WithoutRows({3, 0, 99});
  EXPECT_EQ(reduced2.cells(), (std::vector<std::string>{"b", "c"}));
}

TEST(TableTest, AddColumnEnforcesLength) {
  Table table("t");
  EXPECT_TRUE(table.AddColumn(Column("a", {"1", "2"})).ok());
  Status st = table.AddColumn(Column("b", {"1"}));
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(table.num_columns(), 1u);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, ColumnIndexByName) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column("a", {"1"})).ok());
  ASSERT_TRUE(table.AddColumn(Column("b", {"2"})).ok());
  EXPECT_EQ(*table.ColumnIndex("b"), 1u);
  EXPECT_TRUE(table.ColumnIndex("z").status().IsNotFound());
}

TEST(TableTest, WithoutRowsDropsFromAllColumns) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column("a", {"1", "2", "3"})).ok());
  ASSERT_TRUE(table.AddColumn(Column("b", {"x", "y", "z"})).ok());
  Table reduced = table.WithoutRows({1});
  EXPECT_EQ(reduced.num_rows(), 2u);
  EXPECT_EQ(reduced.column(0).cell(1), "3");
  EXPECT_EQ(reduced.column(1).cell(1), "z");
}

TEST(TableTest, FromCsvPadsShortRows) {
  CsvData csv;
  csv.header = {"a", "b"};
  csv.rows = {{"1", "2"}, {"3"}};
  auto table = Table::FromCsv(csv, "t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_columns(), 2u);
  EXPECT_EQ(table->column(1).cell(1), "");
}

TEST(TableTest, FromCsvNoColumnsFails) {
  CsvData csv;
  EXPECT_FALSE(Table::FromCsv(csv).ok());
}

TEST(TableTest, CsvRoundTrip) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column("a", {"1", "2"})).ok());
  ASSERT_TRUE(table.AddColumn(Column("b", {"x", "y"})).ok());
  auto round = Table::FromCsv(table.ToCsv(), "t2");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->column(0).cells(), table.column(0).cells());
  EXPECT_EQ(round->column(1).name(), "b");
}

}  // namespace
}  // namespace unidetect
