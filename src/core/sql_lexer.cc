#include "core/sql_lexer.h"

#include <array>
#include <cctype>
#include <cstdlib>

#include "common/string_util.h"

namespace mcsm::core {

namespace {

bool IsKeywordWord(std::string_view lower) {
  static constexpr std::array<std::string_view, 44> kKeywords = {
      "select", "from",   "where",  "and",    "or",     "not",    "as",
      "like",   "is",     "null",   "order",  "by",     "asc",    "desc",
      "limit",  "create", "table",  "insert", "into",   "values", "distinct",
      "count",  "sum",    "avg",    "min",    "max",    "substring", "for",
      "text",   "integer", "real",  "char_length", "length", "lower", "upper",
      "position", "in",   "offset", "group",  "having", "update", "set",
      "delete", "drop",
  };
  for (auto k : kKeywords) {
    if (lower == k) return true;
  }
  return false;
}

/// Reads a `quote`-delimited run starting at sql[*i] (the opening quote),
/// a doubled quote standing for one. Leaves *i past the closing quote;
/// false when the run is unterminated.
bool ReadQuoted(std::string_view sql, char quote, size_t* i,
                std::string* value) {
  for (size_t j = *i + 1; j < sql.size(); ++j) {
    if (sql[j] != quote) {
      value->push_back(sql[j]);
    } else if (j + 1 < sql.size() && sql[j + 1] == quote) {
      value->push_back(quote);
      ++j;
    } else {
      *i = j + 1;
      return true;
    }
  }
  return false;
}

}  // namespace

bool IsSqlKeyword(std::string_view word) {
  return IsKeywordWord(ToLower(word));
}

Result<std::vector<SqlToken>> TokenizeSql(std::string_view sql) {
  std::vector<SqlToken> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    // Line comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (c == '\'') {
      // String literal with '' escape.
      std::string value;
      if (!ReadQuoted(sql, '\'', &i, &value)) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      tokens.push_back({SqlTokenType::kString, std::move(value), 0, 0, start});
      continue;
    }
    if (c == '"') {
      // Quoted name with "" escape: an identifier even when it spells a
      // keyword or holds characters a bare word cannot, kept as written.
      std::string value;
      if (!ReadQuoted(sql, '"', &i, &value)) {
        return Status::ParseError(
            StrFormat("unterminated quoted name at offset %zu", start));
      }
      if (value.empty()) {
        return Status::ParseError(
            StrFormat("empty quoted name at offset %zu", start));
      }
      tokens.push_back(
          {SqlTokenType::kIdentifier, std::move(value), 0, 0, start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t end = i;
      bool is_real = false;
      while (end < n && (std::isdigit(static_cast<unsigned char>(sql[end])) ||
                         sql[end] == '.')) {
        if (sql[end] == '.') is_real = true;
        ++end;
      }
      SqlToken tok;
      tok.position = start;
      tok.text = std::string(sql.substr(i, end - i));
      if (is_real) {
        tok.type = SqlTokenType::kReal;
        tok.real = std::strtod(tok.text.c_str(), nullptr);
      } else {
        tok.type = SqlTokenType::kInteger;
        for (char d : tok.text) {
          const int digit = d - '0';
          if (tok.integer > (INT64_MAX - digit) / 10) {
            return Status::ParseError(
                StrFormat("integer out of range at offset %zu", start));
          }
          tok.integer = tok.integer * 10 + digit;
        }
      }
      tokens.push_back(std::move(tok));
      i = end;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = i;
      while (end < n && (std::isalnum(static_cast<unsigned char>(sql[end])) ||
                         sql[end] == '_')) {
        ++end;
      }
      std::string lower = ToLower(sql.substr(i, end - i));
      SqlTokenType type = IsKeywordWord(lower) ? SqlTokenType::kKeyword
                                               : SqlTokenType::kIdentifier;
      tokens.push_back({type, std::move(lower), 0, 0, start});
      i = end;
      continue;
    }
    // Symbols, longest-first.
    auto push_symbol = [&](std::string sym) {
      size_t len = sym.size();
      tokens.push_back({SqlTokenType::kSymbol, std::move(sym), 0, 0, start});
      i += len;
    };
    if (c == '|' && i + 1 < n && sql[i + 1] == '|') {
      push_symbol("||");
      continue;
    }
    if (c == '<' && i + 1 < n && sql[i + 1] == '>') {
      push_symbol("<>");
      continue;
    }
    if (c == '!' && i + 1 < n && sql[i + 1] == '=') {
      push_symbol("<>");  // normalize != to <>
      continue;
    }
    if (c == '<' && i + 1 < n && sql[i + 1] == '=') {
      push_symbol("<=");
      continue;
    }
    if (c == '>' && i + 1 < n && sql[i + 1] == '=') {
      push_symbol(">=");
      continue;
    }
    if (std::string_view("()*,=<>+-/.;").find(c) != std::string_view::npos) {
      push_symbol(std::string(1, c));
      continue;
    }
    return Status::ParseError(
        StrFormat("unexpected character '%c' at offset %zu", c, start));
  }
  tokens.push_back({SqlTokenType::kEnd, "", 0, 0, n});
  return tokens;
}

}  // namespace mcsm::core
