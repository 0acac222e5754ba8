#include "core/sql_emitter.h"

#include <gtest/gtest.h>

#include "core/search.h"
#include "relational/csv.h"
#include "vm/compiler.h"
#include "vm/executor.h"

namespace mcsm::core {
namespace {

using relational::Schema;
using relational::Table;

Schema NameSchema() {
  return Table::WithTextColumns({"first", "middle", "last"}).schema();
}

TEST(SqlEmitterTest, PaperSection41Query) {
  TranslationFormula f({Region::Span(0, 1, 1), Region::SpanToEnd(2, 1)});
  SqlEmitter::Options options;
  options.source_table = "t1";
  options.output_column = "login";
  auto sql = SqlEmitter::ToSql(f, NameSchema(), options);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql,
            "select substring(first from 1 for 1) || last as login from t1 "
            "where first is not null and "
            "char_length(substring(first from 1 for 1)) = 1 and "
            "last is not null and char_length(last) >= 1");
}

TEST(SqlEmitterTest, MidStringToEndSpan) {
  TranslationFormula f({Region::SpanToEnd(2, 3)});
  auto sql = SqlEmitter::ToSql(f, NameSchema(), {});
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("substring(last from 3)"), std::string::npos);
  EXPECT_NE(sql->find("char_length(last) >= 3"), std::string::npos);
}

TEST(SqlEmitterTest, LiteralsQuoted) {
  TranslationFormula f({Region::SpanToEnd(2, 1), Region::Literal(", "),
                        Region::SpanToEnd(0, 1)});
  auto sql = SqlEmitter::ToSql(f, NameSchema(), {});
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("|| ', ' ||"), std::string::npos);
}

TEST(SqlEmitterTest, LiteralQuoteEscaping) {
  TranslationFormula f({Region::Literal("o'clock"), Region::SpanToEnd(0, 1)});
  auto sql = SqlEmitter::ToSql(f, NameSchema(), {});
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("'o''clock'"), std::string::npos);
}

TEST(SqlEmitterTest, IncompleteFormulaRejected) {
  TranslationFormula f({Region::Unknown(), Region::SpanToEnd(2, 1)});
  EXPECT_TRUE(SqlEmitter::ToSql(f, NameSchema(), {}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SqlEmitter::ToSql(TranslationFormula{}, NameSchema(), {})
                  .status()
                  .IsInvalidArgument());
}

TEST(SqlEmitterTest, ColumnBeyondSchemaRejected) {
  TranslationFormula f({Region::SpanToEnd(9, 1)});
  EXPECT_TRUE(SqlEmitter::ToSql(f, NameSchema(), {}).status().IsOutOfRange());
}

TEST(SqlEmitterTest, AmbiguousColumnNameRejected) {
  // CSV headers may repeat a name, exactly or up to case. Unquoted SQL folds
  // case, so such a column has no name of its own: ToSql must not emit one
  // (an engine would resolve it to the first match, a different column),
  // and FromSql, which accepts only what ToSql writes, refuses it too.
  for (const char* header : {"a,a,other", "Name,name,other"}) {
    SCOPED_TRACE(header);
    auto t = relational::ReadCsv(std::string(header) + "\nleft,right,x\n");
    ASSERT_TRUE(t.ok()) << t.status();
    const Schema& schema = t->schema();
    for (size_t column : {size_t{0}, size_t{1}}) {
      EXPECT_TRUE(SqlEmitter::ToSql(TranslationFormula({Region::SpanToEnd(
                                        column, 1)}),
                                    schema, {})
                      .status()
                      .IsInvalidArgument());
    }
    const std::string name = schema.column(1).name;
    EXPECT_TRUE(SqlEmitter::FromSql("select " + name + " as t from t1 where " +
                                        name + " is not null and char_length(" +
                                        name + ") >= 1",
                                    schema)
                    .status()
                    .IsInvalidArgument());
    // The column with a name of its own still emits.
    EXPECT_TRUE(SqlEmitter::ToSql(TranslationFormula({Region::SpanToEnd(2, 1)}),
                                  schema, {})
                    .ok());
  }
}

// Integration invariant: the emitted SQL parses back to the program the
// formula compiles to, wire byte for wire byte, and running it translates
// exactly the values Apply() produces for the covered rows.
TEST(SqlEmitterTest, EmittedSqlAgreesWithApply) {
  Table t = Table::WithTextColumns({"first", "middle", "last"});
  ASSERT_TRUE(t.AppendTextRow({"robert", "h", "kerry"}).ok());
  ASSERT_TRUE(t.AppendTextRow({"kyle", "s", "norman"}).ok());
  ASSERT_TRUE(t.AppendRow({relational::Value(""), relational::Value("a"),
                           relational::Value("case")}).ok());  // empty first
  ASSERT_TRUE(t.AppendRow({relational::Value::MakeNull(),
                           relational::Value("b"),
                           relational::Value("galt")}).ok());  // NULL first

  TranslationFormula f({Region::Span(0, 1, 1), Region::SpanToEnd(2, 1)});
  SqlEmitter::Options options;
  options.output_column = "login";
  auto sql = SqlEmitter::ToSql(f, t.schema(), options);
  ASSERT_TRUE(sql.ok());

  auto query = SqlEmitter::FromSql(*sql, t.schema());
  ASSERT_TRUE(query.ok()) << query.status();
  auto program = vm::CompileFormula(query->formula, t.schema());
  ASSERT_TRUE(program.ok()) << program.status();
  auto direct = vm::CompileFormula(f, t.schema());
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(program->Serialize(), direct->Serialize());
  auto result = vm::Translate(*program, t);
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<std::string> via_apply;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    auto v = f.Apply(t, row);
    if (v.has_value()) via_apply.push_back(*v);
  }
  std::vector<std::string> via_sql;
  for (size_t i = 0; i < result->output_rows(); ++i) {
    via_sql.emplace_back(result->value(i));
  }
  EXPECT_EQ(via_sql, via_apply);
  EXPECT_EQ(via_sql.size(), 2u);  // empty and NULL first rows excluded
}

}  // namespace
}  // namespace mcsm::core
