#include <gtest/gtest.h>

#include "relational/sampler.h"
#include "relational/table.h"
#include "relational/value.h"

namespace mcsm::relational {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{3}).is_integer());
  EXPECT_TRUE(Value(2.5).is_real());
  EXPECT_TRUE(Value("x").is_text());
  EXPECT_TRUE(Value(int64_t{3}).is_numeric());
  EXPECT_TRUE(Value(2.5).is_numeric());
  EXPECT_FALSE(Value("x").is_numeric());
}

TEST(ValueTest, Display) {
  EXPECT_EQ(Value().ToDisplayString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToDisplayString(), "42");
  EXPECT_EQ(Value(2.0).ToDisplayString(), "2.0");
  EXPECT_EQ(Value("ab").ToDisplayString(), "ab");
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  Schema schema({{"First", ColumnType::kText}, {"last", ColumnType::kText}});
  EXPECT_EQ(schema.FindColumn("first").value(), 0u);
  EXPECT_EQ(schema.FindColumn("LAST").value(), 1u);
  EXPECT_FALSE(schema.FindColumn("middle").has_value());
}

TEST(TableTest, AppendAndAccess) {
  Table t = Table::WithTextColumns({"a", "b"});
  ASSERT_TRUE(t.AppendTextRow({"x", "y"}).ok());
  ASSERT_TRUE(t.AppendRow({Value("p"), Value::MakeNull()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.TextAt(0, 0).view(), "x");
  EXPECT_EQ(t.TextAt(1, 1).view(), "");  // NULL renders as empty view
  EXPECT_TRUE(t.ValueAt(1, 1).is_null());
  EXPECT_TRUE(t.IsNull(1, 1));
}

TEST(TableTest, TypeChecking) {
  Table t{Schema({{"n", ColumnType::kInteger}, {"r", ColumnType::kReal}})};
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(2.5)}).ok());
  // Integers widen into REAL columns.
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(int64_t{3})}).ok());
  EXPECT_TRUE(t.ValueAt(1, 1).is_real());
  // Text into INTEGER fails.
  EXPECT_TRUE(t.AppendRow({Value("x"), Value(1.0)}).IsTypeError());
  // Wrong arity fails.
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1})}).IsInvalidArgument());
}

TEST(TableTest, RemoveRows) {
  Table t = Table::WithTextColumns({"a"});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.AppendTextRow({std::to_string(i)}).ok());
  }
  // Duplicates and out-of-range indices are ignored.
  ASSERT_TRUE(t.RemoveRows({1, 3, 3, 99}).ok());
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.TextAt(0, 0).view(), "0");
  EXPECT_EQ(t.TextAt(1, 0).view(), "2");
  EXPECT_EQ(t.TextAt(2, 0).view(), "4");
  EXPECT_EQ(t.TextAt(3, 0).view(), "5");
}

TEST(TableTest, Truncate) {
  Table t = Table::WithTextColumns({"a"});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendTextRow({std::to_string(i)}).ok());
  }
  t.Truncate(2);
  EXPECT_EQ(t.num_rows(), 2u);
  t.Truncate(10);  // no-op
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(SamplerTest, SampleSizeClamps) {
  EXPECT_EQ(SampleSize(0, 0.1, 1), 0u);
  EXPECT_EQ(SampleSize(100, 0.1, 1), 10u);
  EXPECT_EQ(SampleSize(5, 0.1, 3), 3u);
  EXPECT_EQ(SampleSize(2, 0.1, 5), 2u);  // capped at population
}

TEST(SamplerTest, EquidistantIndicesSpreadAndBounded) {
  auto idx = EquidistantIndices(100, 10);
  ASSERT_EQ(idx.size(), 10u);
  EXPECT_EQ(idx[0], 0u);
  for (size_t i = 1; i < idx.size(); ++i) {
    EXPECT_GT(idx[i], idx[i - 1]);
    EXPECT_LT(idx[i], 100u);
  }
  // Gaps within 1 of each other (equal spacing).
  for (size_t i = 1; i < idx.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(idx[i] - idx[i - 1]), 10.0, 1.0);
  }
}

TEST(SamplerTest, EquidistantEdgeCases) {
  EXPECT_TRUE(EquidistantIndices(0, 5).empty());
  EXPECT_TRUE(EquidistantIndices(5, 0).empty());
  EXPECT_EQ(EquidistantIndices(3, 10).size(), 3u);  // t clamped to population
  auto all = EquidistantIndices(4, 4);
  EXPECT_EQ(all, (std::vector<size_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace mcsm::relational
