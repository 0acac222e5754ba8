#ifndef MCSM_CORE_SQL_EMITTER_H_
#define MCSM_CORE_SQL_EMITTER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "core/formula.h"
#include "relational/table.h"

namespace mcsm::core {

/// \brief Renders a complete translation formula as an executable SQL query
/// (the paper's Section 4.1-4.3 output format), e.g.:
///
///   select substring(first from 1 for 1) || last as login from t1
///   where first is not null
///     and char_length(substring(first from 1 for 1)) = 1
///     and last is not null and char_length(last) >= 1
///
/// The WHERE clauses guard exactly the rows the formula covers: fixed spans
/// require the full width to be present, end-of-string spans require at
/// least one character from their start position.
///
/// FromSql is the inverse, so this class owns the emitted dialect. Running a
/// query means parsing it back and compiling the formula for the VM
/// (vm::CompileFormula, vm::Translate); TranslationFormula::Apply is the
/// semantic oracle both sides are tested against.
class SqlEmitter {
 public:
  struct Options {
    std::string source_table = "t1";
    std::string output_column = "translated";
  };

  /// Names that are not plain identifiers, or that spell a keyword, are
  /// double-quoted ("first name", "text"). Fails with InvalidArgument when
  /// the formula still has Unknown regions, when a name is empty, or when it
  /// references a column whose name another column of `schema` shares,
  /// ignoring case (FromSql resolves names ignoring case).
  static Result<std::string> ToSql(const TranslationFormula& formula,
                                   const relational::Schema& schema,
                                   const Options& options);

  /// A parsed statement: the formula it renders, and its own table name and
  /// output alias (lower-cased, as SQL folds unquoted names; a quoted name
  /// keeps its case).
  struct Query {
    TranslationFormula formula;
    Options options;
  };

  /// Parses `sql` back to the formula it renders over `schema`. Accepts a
  /// statement only if it is, token for token, ToSql of that formula under
  /// its own table name and alias; keyword and name case and whitespace may
  /// differ. That pins the WHERE clause to exactly the guards the select
  /// list implies. Anything else — DML, `select *`, `limit`, a missing,
  /// extra or reordered guard, an unknown column, a keyword used as a bare
  /// column name — is a ParseError or an InvalidArgument.
  static Result<Query> FromSql(std::string_view sql,
                               const relational::Schema& schema);
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_SQL_EMITTER_H_
