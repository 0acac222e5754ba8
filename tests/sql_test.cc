// The SQL dialect the emitter writes: its lexer, and the parser that reads
// an emitted query back to its formula (SqlEmitter::FromSql). Running a
// query is parse, vm::CompileFormula, vm::Translate; Apply is the oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sql_emitter.h"
#include "core/sql_lexer.h"
#include "vm/compiler.h"
#include "vm/executor.h"

namespace mcsm::core {
namespace {

using relational::Schema;
using relational::Table;
using relational::Value;

TEST(LexerTest, TokenizesKeywordsIdentifiersAndSymbols) {
  auto tokens = TokenizeSql("SELECT first FROM t1 WHERE x <> 3.5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_EQ((*tokens)[1].type, SqlTokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "first");
  EXPECT_TRUE((*tokens)[6].IsSymbol("<>"));
  EXPECT_EQ((*tokens)[7].type, SqlTokenType::kReal);
  EXPECT_DOUBLE_EQ((*tokens)[7].real, 3.5);
}

TEST(LexerTest, StringLiteralsWithQuoteEscape) {
  auto tokens = TokenizeSql("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, SqlTokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, ErrorsOnUnterminatedString) {
  EXPECT_TRUE(TokenizeSql("'oops").status().IsParseError());
  // An integer beyond int64 is an error too, not an exception.
  EXPECT_TRUE(TokenizeSql("99999999999999999999").status().IsParseError());
}

TEST(LexerTest, QuotedNamesAreIdentifiersAsWritten) {
  auto tokens = TokenizeSql("\"Text\" \"first name\" \"a\"\"b\"");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  ASSERT_EQ(tokens->size(), 4u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].Is(SqlTokenType::kIdentifier, "Text"));
  EXPECT_TRUE((*tokens)[1].Is(SqlTokenType::kIdentifier, "first name"));
  EXPECT_TRUE((*tokens)[2].Is(SqlTokenType::kIdentifier, "a\"b"));
  EXPECT_TRUE(TokenizeSql("\"open").status().IsParseError());
  EXPECT_TRUE(TokenizeSql("\"\"").status().IsParseError());
}

TEST(LexerTest, NormalizesNotEquals) {
  auto tokens = TokenizeSql("a != b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<>"));
}

TEST(LexerTest, LineComments) {
  auto tokens = TokenizeSql("select -- comment\n 1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].type, SqlTokenType::kInteger);
}

/// The people of the paper's Section 4.1 example; amy has no last name.
Table People() {
  Table t = Table::WithTextColumns({"first", "last", "age"});
  EXPECT_TRUE(t.AppendTextRow({"robert", "kerry", "30"}).ok());
  EXPECT_TRUE(t.AppendTextRow({"kyle", "norman", "25"}).ok());
  EXPECT_TRUE(t.AppendTextRow({"norma", "wiseman", "41"}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("amy"), Value::MakeNull(), Value("19")}).ok());
  return t;
}

/// The Section 4.1 login query over People(), as SqlEmitter writes it.
constexpr const char* kPaperQuery =
    "select substring(first from 1 for 1) || last as login from people "
    "where first is not null and "
    "char_length(substring(first from 1 for 1)) = 1 and "
    "last is not null and char_length(last) >= 1";

TranslationFormula PaperFormula() {
  return TranslationFormula({Region::Span(0, 1, 1), Region::SpanToEnd(1, 1)});
}

Status ParseStatus(const std::string& sql) {
  return SqlEmitter::FromSql(sql, People().schema()).status();
}

/// Runs `sql` the way every caller does: parse, compile, translate.
Result<std::vector<std::string>> RunSql(const std::string& sql,
                                        const Table& table) {
  MCSM_ASSIGN_OR_RETURN(SqlEmitter::Query query,
                        SqlEmitter::FromSql(sql, table.schema()));
  MCSM_ASSIGN_OR_RETURN(vm::Program program,
                        vm::CompileFormula(query.formula, table.schema()));
  MCSM_ASSIGN_OR_RETURN(vm::TranslateResult result,
                        vm::Translate(program, table));
  std::vector<std::string> values;
  for (size_t i = 0; i < result.output_rows(); ++i) {
    values.emplace_back(result.value(i));
  }
  return values;
}

/// An accepted statement is, token for token, ToSql of what it parsed to.
void ExpectEmittedForm(const std::string& sql, const SqlEmitter::Query& query,
                       const Schema& schema) {
  auto emitted = SqlEmitter::ToSql(query.formula, schema, query.options);
  ASSERT_TRUE(emitted.ok()) << emitted.status();
  auto given = TokenizeSql(sql);
  auto expected = TokenizeSql(*emitted);
  ASSERT_TRUE(given.ok() && expected.ok());
  ASSERT_EQ(given->size(), expected->size()) << sql << "\nvs " << *emitted;
  for (size_t i = 0; i < given->size(); ++i) {
    EXPECT_EQ((*given)[i].type, (*expected)[i].type) << sql;
    EXPECT_EQ((*given)[i].text, (*expected)[i].text) << sql;
  }
}

TEST(ParserTest, RejectsGarbage) {
  for (const char* sql :
       {"", "TRUNCATE t", "select from", "select 1 extra garbage ,",
        "update t", "delete t", "drop t", "select first as x from",
        "select first as x from people where", "'oops",
        "select first as x from people;"}) {
    EXPECT_TRUE(ParseStatus(sql).IsParseError()) << sql;
  }
}

TEST(ParserTest, SubstringBothSyntaxes) {
  // The emitter writes two substring forms — a fixed span `from S for W`
  // and an end-of-string tail `from S` — and both read back. The comma form
  // it never writes does not, nor does `from 1`, which it writes as the
  // bare column.
  const Schema schema = People().schema();
  auto fixed = SqlEmitter::FromSql(
      "select substring(first from 2 for 3) as x from people where first is "
      "not null and char_length(substring(first from 2 for 3)) = 3",
      schema);
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  EXPECT_EQ(fixed->formula, TranslationFormula({Region::Span(0, 2, 4)}));
  auto tail = SqlEmitter::FromSql(
      "select substring(last from 3) as x from people where last is not "
      "null and char_length(last) >= 3",
      schema);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_EQ(tail->formula, TranslationFormula({Region::SpanToEnd(1, 3)}));

  EXPECT_TRUE(ParseStatus("select substring(first, 2, 3) as x from people "
                          "where first is not null and "
                          "char_length(substring(first from 2 for 3)) = 3")
                  .IsParseError());
  EXPECT_TRUE(ParseStatus("select substring(last from 1) as x from people "
                          "where last is not null and char_length(last) >= 1")
                  .IsParseError());
}

TEST(ParserTest, PaperSection41QueryRoundTrips) {
  SqlEmitter::Options options;
  options.source_table = "people";
  options.output_column = "login";
  auto sql = SqlEmitter::ToSql(PaperFormula(), People().schema(), options);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_EQ(*sql, kPaperQuery);

  // Keyword and name case and whitespace may differ.
  for (const std::string& text :
       {std::string(kPaperQuery),
        std::string("SELECT Substring(First FROM 1 FOR 1)\n  || LAST\n"
                    "AS Login FROM People\n"
                    "WHERE first IS NOT NULL\n"
                    "  AND CHAR_LENGTH(SUBSTRING(first FROM 1 FOR 1)) = 1\n"
                    "  AND last IS NOT NULL AND char_length(last) >= 1 "
                    "-- emitted by hand\n")}) {
    auto query = SqlEmitter::FromSql(text, People().schema());
    ASSERT_TRUE(query.ok()) << query.status();
    EXPECT_EQ(query->formula, PaperFormula());
    EXPECT_EQ(query->options.source_table, "people");
    EXPECT_EQ(query->options.output_column, "login");
  }

  // The statement keeps its own table name and alias.
  options.source_table = "staff";
  options.output_column = "user_name";
  sql = SqlEmitter::ToSql(PaperFormula(), People().schema(), options);
  ASSERT_TRUE(sql.ok()) << sql.status();
  auto query = SqlEmitter::FromSql(*sql, People().schema());
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->options.source_table, "staff");
  EXPECT_EQ(query->options.output_column, "user_name");

  // And it runs: three logins; amy, with no last name, is not covered.
  auto values = RunSql(kPaperQuery, People());
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values,
            (std::vector<std::string>{"rkerry", "knorman", "nwiseman"}));
}

TEST(ParserTest, LiteralsRoundTripWithQuoteEscapes) {
  const Table people = People();
  for (const TranslationFormula& f :
       {TranslationFormula({Region::SpanToEnd(1, 1), Region::Literal("'s, "),
                            Region::SpanToEnd(0, 1)}),
        TranslationFormula({Region::Literal(""), Region::Span(2, 2, 2),
                            Region::Literal("--")}),
        TranslationFormula({Region::Literal("fixed")})}) {
    auto sql = SqlEmitter::ToSql(f, people.schema(), {});
    ASSERT_TRUE(sql.ok()) << sql.status();
    auto query = SqlEmitter::FromSql(*sql, people.schema());
    ASSERT_TRUE(query.ok()) << query.status() << " for " << *sql;
    EXPECT_EQ(query->formula, f) << *sql;
    auto values = RunSql(*sql, people);
    ASSERT_TRUE(values.ok()) << values.status();
    std::vector<std::string> via_apply;
    for (size_t row = 0; row < people.num_rows(); ++row) {
      if (auto v = f.Apply(people, row)) via_apply.push_back(*v);
    }
    EXPECT_EQ(*values, via_apply) << *sql;
  }
}

TEST(ParserTest, RejectsDml) {
  for (const char* sql :
       {"delete from people where age < 26", "update people set age = 1",
        "insert into people values ('a', 'b', 'c')", "drop table people",
        "create table t (a text)"}) {
    EXPECT_TRUE(ParseStatus(sql).IsParseError()) << sql;
  }
}

TEST(ParserTest, RejectsSelectStar) {
  EXPECT_TRUE(ParseStatus("select * from people").IsParseError());
}

TEST(ParserTest, RejectsLimit) {
  EXPECT_TRUE(
      ParseStatus(std::string(kPaperQuery) + " limit 5").IsParseError());
}

TEST(ParserTest, RejectsMissingGuard) {
  // Without last's guard the query would also cover amy's NULL last name.
  const std::string select =
      "select substring(first from 1 for 1) || last as login from people";
  const std::string first_guard =
      " where first is not null and "
      "char_length(substring(first from 1 for 1)) = 1";
  for (const std::string& sql :
       {select, select + first_guard,
        select + first_guard + " and last is not null"}) {
    EXPECT_TRUE(ParseStatus(sql).IsParseError()) << sql;
  }
}

TEST(ParserTest, RejectsExtraGuard) {
  EXPECT_TRUE(ParseStatus(std::string(kPaperQuery) + " and first is not null")
                  .IsParseError());
  EXPECT_TRUE(ParseStatus(std::string(kPaperQuery) +
                          " and char_length(last) >= 2")
                  .IsParseError());
}

TEST(ParserTest, RejectsReorderedGuards) {
  EXPECT_TRUE(
      ParseStatus("select substring(first from 1 for 1) || last as login "
                  "from people where last is not null and "
                  "char_length(last) >= 1 and first is not null and "
                  "char_length(substring(first from 1 for 1)) = 1")
          .IsParseError());
}

TEST(ParserTest, RejectsUnknownColumn) {
  EXPECT_TRUE(ParseStatus("select nope as x from people where nope is not "
                          "null and char_length(nope) >= 1")
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseStatus("select substring(nope from 1 for 2) as x from "
                          "people")
                  .IsInvalidArgument());
  // A guard on a column the select list does not use is not emitted form.
  EXPECT_TRUE(ParseStatus("select first as x from people where nope is not "
                          "null and char_length(first) >= 1")
                  .IsParseError());
}

TEST(ParserTest, KeywordColumnNameRoundTrips) {
  // `text` lexes as a keyword, so ToSql double-quotes it, and FromSql reads
  // the quoted name back to the same column. The same holds for an alias;
  // a bare keyword is still refused.
  Table t = Table::WithTextColumns({"text", "note"});
  ASSERT_TRUE(t.AppendTextRow({"abc", "x"}).ok());
  const TranslationFormula formula({Region::SpanToEnd(0, 1)});
  SqlEmitter::Options options;
  options.output_column = "from";
  auto sql = SqlEmitter::ToSql(formula, t.schema(), options);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_EQ(*sql,
            "select \"text\" as \"from\" from t1 where \"text\" is not null "
            "and char_length(\"text\") >= 1");
  auto parsed = SqlEmitter::FromSql(*sql, t.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->formula, formula);
  EXPECT_EQ(parsed->options.output_column, "from");
  auto values = RunSql(*sql, t);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values, std::vector<std::string>{"abc"});
  EXPECT_TRUE(ParseStatus("select first as text from people where first is "
                          "not null and char_length(first) >= 1")
                  .IsParseError());
}

TEST(ParserTest, QuotedNamesRoundTrip) {
  // A CSV header such as `first name`, or one holding a double quote, is
  // not a plain identifier: ToSql quotes it ("" for a quote inside it) and
  // FromSql resolves it. Plain names stay bare, so existing SQL is unchanged.
  Table t = Table::WithTextColumns({"first name", "say \"hi\"", "last"});
  ASSERT_TRUE(t.AppendTextRow({"henry", "yo", "warner"}).ok());
  const TranslationFormula formula(
      {Region::Span(0, 1, 1), Region::SpanToEnd(1, 1),
       Region::SpanToEnd(2, 1)});
  SqlEmitter::Options options;
  options.source_table = "my table";
  auto sql = SqlEmitter::ToSql(formula, t.schema(), options);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("substring(\"first name\" from 1 for 1)"),
            std::string::npos)
      << *sql;
  EXPECT_NE(sql->find("\"say \"\"hi\"\"\""), std::string::npos) << *sql;
  EXPECT_NE(sql->find("|| last as translated from \"my table\""),
            std::string::npos)
      << *sql;
  auto parsed = SqlEmitter::FromSql(*sql, t.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->formula, formula);
  EXPECT_EQ(parsed->options.source_table, "my table");
  ExpectEmittedForm(*sql, *parsed, t.schema());
  auto values = RunSql(*sql, t);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values, std::vector<std::string>{"hyowarner"});
}

TEST(ParserTest, RejectsEmptyNames) {
  Table t = Table::WithTextColumns({"", "last"});
  EXPECT_TRUE(SqlEmitter::ToSql(TranslationFormula({Region::SpanToEnd(0, 1)}),
                                t.schema(), {})
                  .status()
                  .IsInvalidArgument());
  SqlEmitter::Options no_alias;
  no_alias.output_column = "";
  EXPECT_TRUE(SqlEmitter::ToSql(TranslationFormula({Region::SpanToEnd(1, 1)}),
                                t.schema(), no_alias)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseStatus("select \"\" as x from people").IsParseError());
}

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  // Robustness: arbitrary token sequences must produce a ParseError or an
  // InvalidArgument, never a crash or hang; anything accepted must be the
  // emitted form of what it parsed to.
  mcsm::Rng rng(2024);
  const Schema schema = People().schema();
  const std::vector<std::string> vocab = {
      "select", "from",  "where", "and",  "or",   "not",   "like", "(",
      ")",      ",",     "*",     "||",   "=",    "<>",    ">=",   "as",
      "substring", "for", "count", "char_length", "order", "by", "limit",
      "'x'",    "1",     "2.5",   "people", "first", "last", "null", "is",
      ";"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string sql = trial % 2 == 0 ? "select " : "";
    const size_t len = rng.Uniform(14);
    for (size_t i = 0; i < len; ++i) {
      sql += vocab[rng.Uniform(vocab.size())];
      sql += " ";
    }
    auto query = SqlEmitter::FromSql(sql, schema);
    if (!query.ok()) {
      EXPECT_TRUE(query.status().IsParseError() ||
                  query.status().IsInvalidArgument())
          << query.status();
      continue;
    }
    ExpectEmittedForm(sql, *query, schema);
  }
}

TEST(ParserFuzzTest, EditedQueriesAreRejectedOrRunAsEmitted) {
  // Word-level edits of emitted queries (drop, duplicate, swap, replace):
  // each edited statement is rejected, or is itself the emitted form of the
  // formula it parses to — and then compiles or fails as CompileFormula
  // does, and runs exactly as Apply says.
  const Table people = People();
  const Schema& schema = people.schema();
  std::vector<std::vector<std::string>> seeds;
  for (const TranslationFormula& f :
       {PaperFormula(),
        TranslationFormula({Region::SpanToEnd(1, 3), Region::Literal("o'k"),
                            Region::Span(2, 1, 2)}),
        TranslationFormula({Region::Span(0, 0, 2)})}) {
    auto sql = SqlEmitter::ToSql(f, schema, {});
    ASSERT_TRUE(sql.ok()) << sql.status();
    auto tokens = TokenizeSql(*sql);
    ASSERT_TRUE(tokens.ok());
    std::vector<std::string> words;
    for (const SqlToken& t : *tokens) {
      if (t.type == SqlTokenType::kString) {
        std::string quoted = "'";
        for (char c : t.text) quoted += c == '\'' ? "''" : std::string(1, c);
        words.push_back(quoted + "'");
      } else if (t.type != SqlTokenType::kEnd) {
        words.push_back(t.text);
      }
    }
    seeds.push_back(std::move(words));
  }
  const std::vector<std::string> vocab = {
      "first", "last", "age", "people", "x", "1", "2", "3", "0",
      "'a'",   "and",  "||",  "=",      ">=", "(", ")", "limit", "*"};
  mcsm::Rng rng(4048);
  size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::string> words = seeds[rng.Uniform(seeds.size())];
    for (uint64_t edits = 1 + rng.Uniform(2); edits > 0; --edits) {
      const size_t i = rng.Uniform(words.size());
      switch (rng.Uniform(4)) {
        case 0:
          words.erase(words.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:
          words.insert(words.begin() + static_cast<std::ptrdiff_t>(i),
                       words[i]);
          break;
        case 2:
          if (i + 1 < words.size()) std::swap(words[i], words[i + 1]);
          break;
        default:
          words[i] = vocab[rng.Uniform(vocab.size())];
          break;
      }
      if (words.empty()) break;
    }
    std::string sql;
    for (const std::string& w : words) sql += w + " ";

    auto query = SqlEmitter::FromSql(sql, schema);
    if (!query.ok()) {
      EXPECT_TRUE(query.status().IsParseError() ||
                  query.status().IsInvalidArgument())
          << query.status();
      continue;
    }
    ++accepted;
    ExpectEmittedForm(sql, *query, schema);
    auto program = vm::CompileFormula(query->formula, schema);
    if (!program.ok()) {
      EXPECT_TRUE(program.status().IsInvalidArgument()) << program.status();
      continue;
    }
    auto result = vm::Translate(*program, people);
    ASSERT_TRUE(result.ok()) << result.status();
    size_t out = 0;
    for (size_t row = 0; row < people.num_rows(); ++row) {
      if (auto v = query->formula.Apply(people, row)) {
        ASSERT_LT(out, result->output_rows()) << sql;
        EXPECT_EQ(result->value(out++), *v) << sql;
      }
    }
    EXPECT_EQ(out, result->output_rows()) << sql;
  }
  // Renaming the alias or the table keeps a query in emitted form, so some
  // edits must land on the accepting path.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace mcsm::core
