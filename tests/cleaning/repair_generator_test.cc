#include "cleaning/repair_generator.h"

#include <gtest/gtest.h>

#include "data/csv.h"

namespace cpclean {
namespace {

Table MakeDirtyTable() {
  return ReadCsvString(
             "age,city,label\n"
             "10,rome,0\n"
             "20,rome,1\n"
             ",paris,1\n"
             "40,,0\n"
             "30,berlin,1\n"
             ",,1\n")
      .value();
}

TEST(CellRepairsTest, NumericPercentileSet) {
  const Table table = MakeDirtyTable();
  const auto repairs = CellRepairs(table, 0);
  // Observed ages: {10, 20, 40, 30} -> min 10, p25 17.5, mean 25, p75 32.5,
  // max 40.
  ASSERT_EQ(repairs.size(), 5u);
  EXPECT_DOUBLE_EQ(repairs[0].numeric(), 10.0);
  EXPECT_DOUBLE_EQ(repairs[1].numeric(), 17.5);
  EXPECT_DOUBLE_EQ(repairs[2].numeric(), 25.0);
  EXPECT_DOUBLE_EQ(repairs[3].numeric(), 32.5);
  EXPECT_DOUBLE_EQ(repairs[4].numeric(), 40.0);
}

TEST(CellRepairsTest, NumericDeduplicatesDegenerateColumns) {
  const auto table = ReadCsvString("x,label\n5,0\n5,1\n,0\n").value();
  const auto repairs = CellRepairs(table, 0);
  EXPECT_EQ(repairs.size(), 1u);  // all five statistics collapse to 5
  EXPECT_DOUBLE_EQ(repairs[0].numeric(), 5.0);
}

TEST(CellRepairsTest, CategoricalTopKPlusOther) {
  const Table table = MakeDirtyTable();
  const auto repairs = CellRepairs(table, 1);
  // Observed: rome x2, paris, berlin (3 distinct) + "__other__".
  ASSERT_EQ(repairs.size(), 4u);
  EXPECT_EQ(repairs[0].categorical(), "rome");  // most frequent first
  EXPECT_EQ(repairs.back().categorical(), "__other__");
}

TEST(CellRepairsTest, CategoricalCapsAtTopK) {
  RepairOptions options;
  options.categorical_top_k = 2;
  const Table table = MakeDirtyTable();
  const auto repairs = CellRepairs(table, 1, options);
  ASSERT_EQ(repairs.size(), 3u);  // top-2 + other
  EXPECT_EQ(repairs[0].categorical(), "rome");
  EXPECT_EQ(repairs[1].categorical(), "berlin");  // tie broken alphabetically
}

TEST(RowRepairsTest, CompleteRowYieldsItself) {
  const Table table = MakeDirtyTable();
  const auto rows = RowRepairs(table, 0, 2, ColumnRepairs(table, 2)).value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], table.row(0));
}

TEST(RowRepairsTest, SingleMissingCellExpandsToCellRepairs) {
  const Table table = MakeDirtyTable();
  // Row 2 is missing its age.
  const auto rows = RowRepairs(table, 2, 2, ColumnRepairs(table, 2)).value();
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    EXPECT_TRUE(row[0].is_numeric());
    EXPECT_EQ(row[1].categorical(), "paris");  // untouched cells preserved
    EXPECT_EQ(row[2], Value::Numeric(1));  // label column inferred numeric
  }
}

TEST(RowRepairsTest, MultipleMissingCellsTakeCartesianProduct) {
  const Table table = MakeDirtyTable();
  // Row 5 is missing its age AND its city.
  const auto rows = RowRepairs(table, 5, 2, ColumnRepairs(table, 2)).value();
  EXPECT_EQ(rows.size(), 20u);  // 5 numeric x 4 categorical
  // All complete.
  for (const auto& row : rows) {
    for (const Value& v : row) EXPECT_FALSE(v.is_null());
  }
}

TEST(RowRepairsTest, CartesianProductRespectsCap) {
  RepairOptions options;
  options.max_candidates_per_row = 7;
  const Table table = MakeDirtyTable();
  const auto rows =
      RowRepairs(table, 5, 2, ColumnRepairs(table, 2, options), options)
          .value();
  EXPECT_EQ(rows.size(), 7u);
}

TEST(ColumnRepairsTest, OneCellRepairListPerFeatureColumn) {
  const Table table = MakeDirtyTable();
  const auto lists = ColumnRepairs(table, 2);
  ASSERT_EQ(lists.size(), 3u);
  EXPECT_EQ(lists[0], CellRepairs(table, 0));
  EXPECT_EQ(lists[1], CellRepairs(table, 1));
  EXPECT_TRUE(lists[2].empty());  // the label column is never repaired
}

TEST(RowRepairsTest, RejectsMismatchedOrEmptyColumnLists) {
  const Table table = MakeDirtyTable();
  auto lists = ColumnRepairs(table, 2);
  lists.pop_back();
  EXPECT_FALSE(RowRepairs(table, 2, 2, lists).ok());
  lists = ColumnRepairs(table, 2);
  lists[0].clear();  // row 2 misses column 0
  EXPECT_FALSE(RowRepairs(table, 2, 2, lists).ok());
  EXPECT_TRUE(RowRepairs(table, 3, 2, lists).ok());  // row 3 misses column 1
}

TEST(RowRepairsTest, RejectsNullLabelAndBadRow) {
  auto table = MakeDirtyTable();
  table.Set(0, 2, Value::Null());
  const auto lists = ColumnRepairs(table, 2);
  EXPECT_FALSE(RowRepairs(table, 0, 2, lists).ok());
  EXPECT_FALSE(RowRepairs(table, 99, 2, lists).ok());
}

}  // namespace
}  // namespace cpclean
