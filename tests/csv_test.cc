#include "relational/csv.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "temp_path.h"

namespace mcsm::relational {
namespace {

TEST(CsvTest, ParsesHeaderAndRows) {
  auto table = ReadCsv("first,last\nrobert,kerry\nkyle,norman\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().column(0).name, "first");
  EXPECT_EQ(table->TextAt(1, 1).view(), "norman");
}

TEST(CsvTest, HandlesQuotingAndEscapes) {
  auto table = ReadCsv("name,quote\n\"smith, jr\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->TextAt(0, 0).view(), "smith, jr");
  EXPECT_EQ(table->TextAt(0, 1).view(), "he said \"hi\"");
}

TEST(CsvTest, QuotedFieldMaySpanLines) {
  auto table = ReadCsv("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->TextAt(0, 0).view(), "line1\nline2");
}

TEST(CsvTest, Utf8BomStripped) {
  // Spreadsheet exports prepend EF BB BF; the first column name must not
  // absorb it.
  auto table = ReadCsv("\xEF\xBB\xBF" "first,last\nrobert,kerry\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->schema().column(0).name, "first");
  EXPECT_TRUE(table->schema().FindColumn("first").has_value());
  EXPECT_EQ(table->TextAt(0, 0).view(), "robert");
  // A BOM alone is still an empty file.
  EXPECT_FALSE(ReadCsv("\xEF\xBB\xBF").ok());
}

TEST(CsvTest, CrlfLineEndings) {
  auto table = ReadCsv("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->TextAt(1, 1).view(), "4");
}

TEST(CsvTest, EmptyUnquotedFieldsBecomeNull) {
  auto table = ReadCsv("a,b\nx,\n,y\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_TRUE(table->ValueAt(0, 1).is_null());
  EXPECT_TRUE(table->ValueAt(1, 0).is_null());
  // Quoted empty stays an empty string.
  auto quoted = ReadCsv("a,b\n\"\",y\n");
  ASSERT_TRUE(quoted.ok());
  ASSERT_TRUE(quoted->ValueAt(0, 0).is_text());
  EXPECT_EQ(quoted->ValueAt(0, 0).text(), "");
}

TEST(CsvTest, EmptyAsNullCanBeDisabled) {
  CsvOptions options;
  options.empty_as_null = false;
  auto table = ReadCsv("a,b\nx,\n", options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table->ValueAt(0, 1).is_text());
  EXPECT_EQ(table->ValueAt(0, 1).text(), "");
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto table = ReadCsv("a;b\n1,5;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->TextAt(0, 0).view(), "1,5");
}

TEST(CsvTest, MissingNewlineAtEof) {
  auto table = ReadCsv("a,b\n1,2");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->TextAt(0, 1).view(), "2");
}

TEST(CsvTest, BlankLinesSkipped) {
  auto table = ReadCsv("a,b\n1,2\n\n3,4\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvTest, Errors) {
  EXPECT_TRUE(ReadCsv("").status().IsInvalidArgument());
  EXPECT_TRUE(ReadCsv("a,b\n\"unterminated").status().IsParseError());
  EXPECT_TRUE(ReadCsv("a,b\n1,2,3\n").status().IsParseError());
  EXPECT_TRUE(ReadCsv("a,b\nx\"y,2\n").status().IsParseError());
  EXPECT_TRUE(ReadCsv(",b\n").status().IsInvalidArgument());
}

TEST(CsvTest, RoundTrip) {
  Table t = Table::WithTextColumns({"name", "note"});
  ASSERT_TRUE(t.AppendTextRow({"smith, jr", "said \"hi\""}).ok());
  ASSERT_TRUE(t.AppendRow({Value("plain"), Value::MakeNull()}).ok());
  ASSERT_TRUE(t.AppendTextRow({"multi\nline", ""}).ok());

  std::string csv = WriteCsv(t);
  auto back = ReadCsv(csv);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back->ValueAt(r, c), t.ValueAt(r, c)) << r << "," << c;
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  Table t = Table::WithTextColumns({"a"});
  ASSERT_TRUE(t.AppendTextRow({"hello"}).ok());
  std::string path = UniqueTempPath("mcsm_csv_test", ".csv");
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->TextAt(0, 0).view(), "hello");
  std::remove(path.c_str());
  EXPECT_TRUE(ReadCsvFile("/nonexistent/file.csv").status().IsNotFound());
}

CsvOptions Permissive() {
  CsvOptions o;
  o.permissive = true;
  return o;
}

TEST(CsvPermissiveTest, SkipsRowsWithWrongFieldCount) {
  CsvReadReport report;
  auto table = ReadCsv("a,b\n1,2\nonly_one\n3,4,5\n6,7\n", Permissive(),
                       &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->TextAt(0, 0).view(), "1");
  EXPECT_EQ(table->TextAt(1, 1).view(), "7");
  EXPECT_EQ(report.rows_kept, 2u);
  EXPECT_EQ(report.rows_dropped, 2u);
  ASSERT_EQ(report.first_errors.size(), 2u);
  EXPECT_NE(report.first_errors[0].find("fields"), std::string::npos);
}

TEST(CsvPermissiveTest, ResyncsAfterStrayQuote) {
  // Row 2 has a stray quote mid-field; permissive mode drops it and resumes
  // on the next line.
  CsvReadReport report;
  auto table =
      ReadCsv("a,b\nx,y\nbad\"row,z\np,q\n", Permissive(), &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->TextAt(1, 0).view(), "p");
  EXPECT_EQ(report.rows_dropped, 1u);
  EXPECT_NE(report.first_errors[0].find("quote"), std::string::npos);
}

TEST(CsvPermissiveTest, UnterminatedQuoteAtEofIsDroppedNotFatal) {
  CsvReadReport report;
  auto table = ReadCsv("a,b\nx,y\n\"never closed,z\n", Permissive(), &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(report.rows_kept, 1u);
  EXPECT_EQ(report.rows_dropped, 1u);
}

TEST(CsvPermissiveTest, HeaderErrorsStayFatal) {
  // Without a parseable header there is no schema to keep rows under, so
  // permissive mode still rejects the file.
  EXPECT_FALSE(ReadCsv("\"unterminated\n1,2\n", Permissive()).ok());
  EXPECT_FALSE(ReadCsv("", Permissive()).ok());
  EXPECT_FALSE(ReadCsv("a,,c\n1,2,3\n", Permissive()).ok());
}

TEST(CsvPermissiveTest, ErrorExamplesAreCapped) {
  std::string text = "a,b\n";
  for (int i = 0; i < 20; ++i) text += "short\n";
  CsvReadReport report;
  auto table = ReadCsv(text, Permissive(), &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(report.rows_dropped, 20u);
  EXPECT_EQ(report.first_errors.size(), CsvReadReport::kMaxErrorExamples);
}

TEST(CsvPermissiveTest, CleanInputReportsNoDrops) {
  CsvReadReport report;
  auto table = ReadCsv("a,b\n1,2\n3,4\n", Permissive(), &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(report.rows_kept, table->num_rows());
  EXPECT_EQ(report.rows_dropped, 0u);
  EXPECT_TRUE(report.first_errors.empty());
}

TEST(CsvPermissiveTest, StrictModeStillFailsAndReportIsReset) {
  CsvReadReport report;
  report.rows_kept = 99;  // stale values must be cleared by ReadCsv
  auto table = ReadCsv("a,b\nonly_one\n", CsvOptions{}, &report);
  EXPECT_TRUE(table.status().IsParseError());
  EXPECT_EQ(report.rows_kept, 0u);
}

}  // namespace
}  // namespace mcsm::relational
