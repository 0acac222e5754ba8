// Fuzz harness for the emitted SQL dialect: lexer -> SqlEmitter::FromSql ->
// vm::CompileFormula -> vm::Translate. Arbitrary bytes must be rejected with
// a ParseError or an InvalidArgument, or parse to a formula whose ToSql
// tokenizes back to the input, token for token. An accepted formula must
// then compile or fail as CompileFormula fails, and a compiled one must
// translate a small table exactly as TranslationFormula::Apply does.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/sql_emitter.h"
#include "core/sql_lexer.h"
#include "relational/table.h"
#include "vm/compiler.h"
#include "vm/executor.h"

namespace {

using mcsm::core::SqlEmitter;
using mcsm::core::SqlToken;
using mcsm::relational::Table;
using mcsm::relational::Value;

// Rows exercising every per-row hazard: NULLs, empties, short values.
const Table& FuzzTable() {
  static const Table* table = [] {
    auto* t = new Table(Table::WithTextColumns({"first", "middle", "last"}));
    MCSM_CHECK(t->AppendTextRow({"robert", "h", "kerry"}).ok());
    MCSM_CHECK(t->AppendTextRow({"", "x", "poe"}).ok());
    MCSM_CHECK(
        t->AppendRow({Value::MakeNull(), Value("q"), Value("galt")}).ok());
    MCSM_CHECK(t->AppendTextRow({"a", "b", ""}).ok());
    MCSM_CHECK(t->AppendTextRow({"mary", "anne", "o'hara"}).ok());
    return t;
  }();
  return *table;
}

bool SameTokens(const std::vector<SqlToken>& a,
                const std::vector<SqlToken>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].text != b[i].text) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 4096) return 0;
  const std::string_view sql(reinterpret_cast<const char*>(data), size);
  const Table& table = FuzzTable();

  auto query = SqlEmitter::FromSql(sql, table.schema());
  if (!query.ok()) {
    MCSM_CHECK(query.status().IsParseError() ||
               query.status().IsInvalidArgument())
        << query.status();
    return 0;
  }

  // Accepted only as the emitted form of what it parsed to.
  auto emitted = SqlEmitter::ToSql(query->formula, table.schema(),
                                   query->options);
  MCSM_CHECK(emitted.ok()) << emitted.status();
  auto given = mcsm::core::TokenizeSql(sql);
  auto expected = mcsm::core::TokenizeSql(*emitted);
  MCSM_CHECK(given.ok() && expected.ok());
  MCSM_CHECK(SameTokens(*given, *expected))
      << "accepted a statement that is not the emitted form: " << *emitted;

  auto program = mcsm::vm::CompileFormula(query->formula, table.schema());
  if (!program.ok()) {
    // Columns resolved by name are always in range, so only the compiler's
    // own InvalidArgument rejections (span from 0, u32 overflow) remain.
    MCSM_CHECK(program.status().IsInvalidArgument()) << program.status();
    return 0;
  }
  auto result = mcsm::vm::Translate(*program, table);
  MCSM_CHECK(result.ok()) << result.status();
  size_t out = 0;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    const std::optional<std::string> value = query->formula.Apply(table, row);
    if (!value.has_value()) continue;
    MCSM_CHECK(out < result->output_rows()) << "vm covered fewer rows";
    MCSM_CHECK(result->rows[out] == row) << "vm/Apply cover different rows";
    MCSM_CHECK(result->value(out) == *value) << "vm/Apply disagree";
    ++out;
  }
  MCSM_CHECK(out == result->output_rows()) << "vm covered rows Apply does not";
  return 0;
}
