#include "data/csv.h"

#include <gtest/gtest.h>

namespace cpclean {
namespace {

TEST(CsvTest, ParsesHeaderAndTypes) {
  const auto table =
      ReadCsvString("age,city\n30,rome\n25,paris\n").value();
  EXPECT_EQ(table.num_rows(), 2);
  EXPECT_EQ(table.schema().field(0).type, ColumnType::kNumeric);
  EXPECT_EQ(table.schema().field(1).type, ColumnType::kCategorical);
  EXPECT_DOUBLE_EQ(table.at(0, 0).numeric(), 30.0);
  EXPECT_EQ(table.at(1, 1).categorical(), "paris");
}

TEST(CsvTest, NullTokens) {
  const auto table = ReadCsvString(
                         "a,b,c\n"
                         "1,,x\n"
                         "NA,null,?\n"
                         "3,4,y\n")
                         .value();
  EXPECT_TRUE(table.at(0, 1).is_null());
  EXPECT_TRUE(table.at(1, 0).is_null());
  EXPECT_TRUE(table.at(1, 1).is_null());
  EXPECT_TRUE(table.at(1, 2).is_null());
  EXPECT_EQ(table.CountMissing(), 4);
  // Column "a" is numeric despite the NA.
  EXPECT_EQ(table.schema().field(0).type, ColumnType::kNumeric);
}

TEST(CsvTest, QuotedFields) {
  const auto table = ReadCsvString(
                         "name,notes\n"
                         "\"crib, grey\",\"says \"\"new\"\"\"\n")
                         .value();
  EXPECT_EQ(table.at(0, 0).categorical(), "crib, grey");
  EXPECT_EQ(table.at(0, 1).categorical(), "says \"new\"");
}

TEST(CsvTest, MixedTypeColumnFallsBackToCategorical) {
  const auto table = ReadCsvString("x\n1\ntwo\n3\n").value();
  EXPECT_EQ(table.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(table.at(0, 0).categorical(), "1");
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  const auto table = ReadCsvString("1,2\n3,4\n", options).value();
  EXPECT_EQ(table.num_rows(), 2);
  EXPECT_EQ(table.schema().field(0).name, "col0");
  EXPECT_EQ(table.schema().field(1).name, "col1");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ReadCsvString("a,b\n1,2\n3\n").ok());
}

TEST(CsvTest, RejectsDuplicateHeaderNames) {
  const auto result = ReadCsvString("a,a\n1,2\n3,4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("\"a\""), std::string::npos)
      << result.status().ToString();
  // Names are compared after whitespace stripping, as the schema sees them.
  EXPECT_FALSE(ReadCsvString("x, y ,y\n1,2,3\n").ok());
}

TEST(CsvTest, RejectsEmptyAndUnterminatedQuote) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a\n\"oops\n").ok());
}

TEST(CsvTest, SkipsBlankLinesAndCrLf) {
  const auto table = ReadCsvString("a,b\r\n1,2\r\n\r\n3,4\r\n").value();
  EXPECT_EQ(table.num_rows(), 2);
  EXPECT_DOUBLE_EQ(table.at(1, 1).numeric(), 4.0);
}

TEST(CsvTest, WriteReadRoundTrip) {
  const auto original = ReadCsvString(
                            "age,city,score\n"
                            "30,rome,1.5\n"
                            ",paris,2\n"
                            "41,,3.25\n")
                            .value();
  const std::string serialized = WriteCsvString(original);
  const auto reparsed = ReadCsvString(serialized).value();
  ASSERT_EQ(reparsed.num_rows(), original.num_rows());
  ASSERT_EQ(reparsed.num_columns(), original.num_columns());
  for (int r = 0; r < original.num_rows(); ++r) {
    for (int c = 0; c < original.num_columns(); ++c) {
      EXPECT_EQ(reparsed.at(r, c), original.at(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  const auto original =
      ReadCsvString("x,y\n1,a\n2,b\n").value();
  const std::string path = ::testing::TempDir() + "/cpclean_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  const auto loaded = ReadCsvFile(path).value();
  EXPECT_EQ(loaded.num_rows(), 2);
  EXPECT_EQ(loaded.at(1, 1).categorical(), "b");
  EXPECT_FALSE(ReadCsvFile("/nonexistent/nope.csv").ok());
}

}  // namespace
}  // namespace cpclean
