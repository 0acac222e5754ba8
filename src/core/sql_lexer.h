#ifndef MCSM_CORE_SQL_LEXER_H_
#define MCSM_CORE_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mcsm::core {

enum class SqlTokenType {
  kIdentifier,  ///< bare word that is not a keyword (normalized lower-case),
                ///< or a "quoted name" (as written, "" escaping a quote)
  kKeyword,     ///< SQL keyword (normalized lower-case)
  kString,      ///< 'single quoted', with '' as the quote escape
  kInteger,
  kReal,
  kSymbol,      ///< operator/punctuation: ( ) , * = <> <= >= < > + - / || .
  kEnd,
};

struct SqlToken {
  SqlTokenType type = SqlTokenType::kEnd;
  std::string text;     ///< normalized text (keywords/identifiers lower-cased)
  int64_t integer = 0;  ///< valid when type == kInteger
  double real = 0;      ///< valid when type == kReal
  size_t position = 0;  ///< byte offset in the input, for error messages

  bool Is(SqlTokenType t, std::string_view s) const {
    return type == t && text == s;
  }
  bool IsKeyword(std::string_view s) const {
    return Is(SqlTokenType::kKeyword, s);
  }
  bool IsSymbol(std::string_view s) const {
    return Is(SqlTokenType::kSymbol, s);
  }
};

/// Tokenizes a SQL string. Keywords are recognized case-insensitively.
/// Returns ParseError on malformed input (unterminated string or quoted
/// name, an empty quoted name, stray char, an integer beyond int64).
Result<std::vector<SqlToken>> TokenizeSql(std::string_view sql);

/// True when `word` lexes as a keyword (case-insensitively).
bool IsSqlKeyword(std::string_view word);

}  // namespace mcsm::core

#endif  // MCSM_CORE_SQL_LEXER_H_
