#include "core/sql_emitter.h"

#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/sql_lexer.h"

namespace mcsm::core {

namespace {

std::string QuoteSqlString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    out += c;
    if (c == '\'') out += '\'';
  }
  out += "'";
  return out;
}

/// `name` as the dialect writes it: bare when it lexes as one identifier,
/// else double-quoted, with "" for a quote inside it.
std::string SqlName(const std::string& name) {
  bool bare = std::isalpha(static_cast<unsigned char>(name[0])) ||
              name[0] == '_';
  for (char c : name) {
    bare = bare && (std::isalnum(static_cast<unsigned char>(c)) || c == '_');
  }
  if (bare && !IsSqlKeyword(name)) return name;
  std::string out = "\"";
  for (char c : name) {
    out += c;
    if (c == '"') out += '"';
  }
  out += "\"";
  return out;
}

bool SharesNameWithAnotherColumn(const relational::Schema& schema,
                                 size_t column) {
  const std::string name = ToLower(schema.column(column).name);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c != column && ToLower(schema.column(c).name) == name) return true;
  }
  return false;
}

std::string DescribeToken(const SqlToken& token) {
  return token.type == SqlTokenType::kEnd ? "end of statement"
                                          : "'" + token.text + "'";
}

/// Cursor over a token list that ends in kEnd, for the select list, alias
/// and table name; FromSql checks everything after them by comparison.
struct TokenReader {
  const std::vector<SqlToken>& tokens;
  size_t pos = 0;

  const SqlToken& Peek() const { return tokens[pos]; }
  bool Accept(SqlTokenType type, std::string_view text) {
    if (!Peek().Is(type, text)) return false;
    ++pos;
    return true;
  }
  Status Expected(const std::string& what) const {
    return Status::ParseError(StrFormat("expected %s at offset %zu, found %s",
                                        what.c_str(), Peek().position,
                                        DescribeToken(Peek()).c_str()));
  }
  Status Expect(SqlTokenType type, std::string_view text) {
    if (Accept(type, text)) return Status::OK();
    return Expected("'" + std::string(text) + "'");
  }
  Result<std::string> Identifier(const std::string& what) {
    if (Peek().type != SqlTokenType::kIdentifier) return Expected(what);
    return tokens[pos++].text;
  }
  Result<size_t> Integer() {
    if (Peek().type != SqlTokenType::kInteger) return Expected("an integer");
    return static_cast<size_t>(tokens[pos++].integer);
  }
};

Result<size_t> ResolveColumn(TokenReader& in,
                             const relational::Schema& schema) {
  MCSM_ASSIGN_OR_RETURN(std::string name, in.Identifier("a column name"));
  std::optional<size_t> column = schema.FindColumn(name);
  if (!column.has_value()) {
    return Status::InvalidArgument("unknown column '" + name + "'");
  }
  return *column;
}

/// One select-list item: 'literal' | column |
/// substring(column from START [for WIDTH]).
Result<Region> ReadSelectItem(TokenReader& in,
                              const relational::Schema& schema) {
  if (in.Peek().type == SqlTokenType::kString) {
    return Region::Literal(in.tokens[in.pos++].text);
  }
  if (in.Peek().type == SqlTokenType::kIdentifier) {
    MCSM_ASSIGN_OR_RETURN(size_t column, ResolveColumn(in, schema));
    return Region::SpanToEnd(column, 1);
  }
  if (!in.Accept(SqlTokenType::kKeyword, "substring")) {
    return in.Expected("a string, a column or substring(...)");
  }
  MCSM_RETURN_IF_ERROR(in.Expect(SqlTokenType::kSymbol, "("));
  MCSM_ASSIGN_OR_RETURN(size_t column, ResolveColumn(in, schema));
  MCSM_RETURN_IF_ERROR(in.Expect(SqlTokenType::kKeyword, "from"));
  MCSM_ASSIGN_OR_RETURN(size_t start, in.Integer());
  Region region = Region::SpanToEnd(column, start);
  if (in.Accept(SqlTokenType::kKeyword, "for")) {
    MCSM_ASSIGN_OR_RETURN(size_t width, in.Integer());
    region = Region::Span(column, start, start + width - 1);
  }
  MCSM_RETURN_IF_ERROR(in.Expect(SqlTokenType::kSymbol, ")"));
  return region;
}

}  // namespace

Result<std::string> SqlEmitter::ToSql(const TranslationFormula& formula,
                                      const relational::Schema& schema,
                                      const Options& options) {
  if (!formula.IsComplete()) {
    return Status::InvalidArgument(
        "cannot emit SQL for a formula with unknown regions: " +
        formula.ToString(schema));
  }
  if (formula.empty()) {
    return Status::InvalidArgument("cannot emit SQL for an empty formula");
  }

  if (options.source_table.empty() || options.output_column.empty()) {
    return Status::InvalidArgument(
        "SQL cannot name an empty table or output column");
  }
  std::vector<std::string> selects;
  std::vector<std::string> wheres;
  for (const auto& r : formula.regions()) {
    switch (r.kind) {
      case Region::Kind::kLiteral:
        selects.push_back(QuoteSqlString(r.literal));
        break;
      case Region::Kind::kColumnSpan: {
        if (r.column >= schema.num_columns()) {
          return Status::OutOfRange(
              StrFormat("formula references column %zu beyond schema (%zu)",
                        r.column, schema.num_columns()));
        }
        const std::string& column_name = schema.column(r.column).name;
        if (column_name.empty()) {
          return Status::InvalidArgument(
              StrFormat("column %zu has an empty name; SQL cannot name it",
                        r.column));
        }
        if (SharesNameWithAnotherColumn(schema, r.column)) {
          return Status::InvalidArgument(StrFormat(
              "column %zu ('%s') shares its name with another column, "
              "ignoring case; SQL cannot name it unambiguously",
              r.column, column_name.c_str()));
        }
        const std::string name = SqlName(column_name);
        if (r.to_end) {
          if (r.start == 1) {
            selects.push_back(name);
            wheres.push_back(
                StrFormat("%s is not null and char_length(%s) >= 1",
                          name.c_str(), name.c_str()));
          } else {
            selects.push_back(StrFormat("substring(%s from %zu)", name.c_str(),
                                        r.start));
            wheres.push_back(StrFormat(
                "%s is not null and char_length(%s) >= %zu", name.c_str(),
                name.c_str(), r.start));
          }
        } else {
          size_t width = r.end - r.start + 1;
          std::string extract = StrFormat("substring(%s from %zu for %zu)",
                                          name.c_str(), r.start, width);
          selects.push_back(extract);
          wheres.push_back(StrFormat(
              "%s is not null and char_length(%s) = %zu", name.c_str(),
              extract.c_str(), width));
        }
        break;
      }
      case Region::Kind::kUnknown:
        return Status::Internal("unknown region survived IsComplete() check");
    }
  }

  std::string sql = "select " + Join(selects, " || ") + " as " +
                    SqlName(options.output_column) + " from " +
                    SqlName(options.source_table);
  if (!wheres.empty()) {
    sql += " where " + Join(wheres, " and ");
  }
  return sql;
}

Result<SqlEmitter::Query> SqlEmitter::FromSql(
    std::string_view sql, const relational::Schema& schema) {
  MCSM_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, TokenizeSql(sql));
  TokenReader in{tokens};
  MCSM_RETURN_IF_ERROR(in.Expect(SqlTokenType::kKeyword, "select"));
  std::vector<Region> regions;
  do {
    MCSM_ASSIGN_OR_RETURN(Region region, ReadSelectItem(in, schema));
    regions.push_back(std::move(region));
  } while (in.Accept(SqlTokenType::kSymbol, "||"));
  Query query;
  MCSM_RETURN_IF_ERROR(in.Expect(SqlTokenType::kKeyword, "as"));
  MCSM_ASSIGN_OR_RETURN(query.options.output_column,
                        in.Identifier("an output alias"));
  MCSM_RETURN_IF_ERROR(in.Expect(SqlTokenType::kKeyword, "from"));
  MCSM_ASSIGN_OR_RETURN(query.options.source_table,
                        in.Identifier("a table name"));
  query.formula = TranslationFormula(std::move(regions));

  // The WHERE clause, and anything else after the table name, must be what
  // ToSql writes for this formula. Both lists end in kEnd, so the first
  // difference stops the walk before either list runs out.
  MCSM_ASSIGN_OR_RETURN(std::string emitted,
                        ToSql(query.formula, schema, query.options));
  MCSM_ASSIGN_OR_RETURN(std::vector<SqlToken> expected, TokenizeSql(emitted));
  for (size_t i = 0; i < expected.size(); ++i) {
    if (tokens[i].type != expected[i].type ||
        tokens[i].text != expected[i].text) {
      return Status::ParseError(StrFormat(
          "expected %s at offset %zu, found %s: not the emitted form of "
          "its select list",
          DescribeToken(expected[i]).c_str(), tokens[i].position,
          DescribeToken(tokens[i]).c_str()));
    }
  }
  return query;
}

}  // namespace mcsm::core
