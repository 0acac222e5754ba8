// Fuzz harness for the translation VM (DESIGN.md §12), in two phases fed by
// one input:
//   1. Adversarial wire decode: the raw bytes go through Program::Deserialize.
//      Anything that decodes is by contract validated, so it must execute
//      over a hostile little table without crashing, without OOB reads (the
//      sanitizers watch), and deterministically across thread counts.
//   2. Compile oracle: the same bytes are re-read as a formula description;
//      if it compiles, the wire form must round-trip exactly, the emitted
//      SQL must parse back to a formula with the same wire bytes, and the
//      executor's output must equal TranslationFormula::Apply row for row —
//      the subsystem's three-way acceptance contract, with Apply as oracle.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/formula.h"
#include "core/sql_emitter.h"
#include "relational/table.h"
#include "vm/compiler.h"
#include "vm/executor.h"
#include "vm/program.h"

namespace {

using mcsm::core::Region;
using mcsm::core::TranslationFormula;
using mcsm::relational::Table;
using mcsm::relational::Value;

// Rows exercising every per-row hazard: NULLs, empties, short values.
const Table& FuzzTable() {
  static const Table* table = [] {
    auto* t = new Table(Table::WithTextColumns({"a", "b", "c", "d"}));
    MCSM_CHECK(t->AppendTextRow({"henry", "j", "warner", "1998"}).ok());
    MCSM_CHECK(t->AppendTextRow({"", "mid", "x", ""}).ok());
    MCSM_CHECK(t->AppendRow({Value::MakeNull(), Value("q"), Value::MakeNull(),
                             Value("z")})
                   .ok());
    MCSM_CHECK(t->AppendTextRow({"ab", "cd", "ef", "gh"}).ok());
    MCSM_CHECK(t->AppendTextRow({"longer-value-here", "s", "t", "u"}).ok());
    return t;
  }();
  return *table;
}

// Byte-stream cursor for phase 2's formula description.
struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  uint8_t Next() { return pos < size ? data[pos++] : 0; }
  bool done() const { return pos >= size; }
};

void CheckExecutesSafely(const mcsm::vm::Program& program) {
  // A decoded program may demand more columns than the table has; that is
  // the documented InvalidArgument path, not a crash.
  std::string bytes_by_threads[2];
  for (int i = 0; i < 2; ++i) {
    mcsm::vm::TranslateOptions options;
    options.num_threads = i == 0 ? 1 : 2;
    options.batch_rows = 2;  // force multiple batches over 5 rows
    auto result = mcsm::vm::Translate(program, FuzzTable(), options);
    if (!result.ok()) {
      MCSM_CHECK(result.status().IsInvalidArgument()) << result.status();
      return;
    }
    MCSM_CHECK(result->rows_processed == FuzzTable().num_rows());
    MCSM_CHECK(result->rows.size() + 1 == result->offsets.size());
    bytes_by_threads[i] = result->bytes;
  }
  MCSM_CHECK(bytes_by_threads[0] == bytes_by_threads[1])
      << "thread-count-dependent output";
}

void FuzzWireDecode(const uint8_t* data, size_t size) {
  auto program = mcsm::vm::Program::Deserialize(
      std::string_view(reinterpret_cast<const char*>(data), size));
  if (!program.ok()) return;  // rejected with a Status: the common case
  // Whatever decodes must re-encode to an accepted (not necessarily
  // byte-identical) form and execute safely.
  auto again = mcsm::vm::Program::Deserialize(program->Serialize());
  MCSM_CHECK(again.ok()) << again.status();
  MCSM_CHECK(*again == *program) << "re-decode changed the program";
  CheckExecutesSafely(*program);
}

void FuzzCompileOracle(const uint8_t* data, size_t size) {
  Cursor cursor{data, size};
  std::vector<Region> regions;
  while (!cursor.done() && regions.size() < 12) {
    const uint8_t kind = cursor.Next();
    switch (kind % 4) {
      case 0: {  // fixed span (start 0 / end < start slip through on purpose)
        const size_t column = cursor.Next() % 6;
        const size_t start = cursor.Next() % 9;
        const size_t end = start + (cursor.Next() % 8) - 2;
        regions.push_back(Region::Span(column, start, end));
        break;
      }
      case 1:  // to-end span
        regions.push_back(
            Region::SpanToEnd(cursor.Next() % 6, cursor.Next() % 9));
        break;
      case 2: {  // literal (possibly empty, possibly with quotes/escapes)
        std::string text;
        for (size_t n = cursor.Next() % 6; n > 0; --n) {
          text.push_back(static_cast<char>(cursor.Next()));
        }
        regions.push_back(Region::Literal(std::move(text)));
        break;
      }
      case 3:  // unknown region: must be rejected by the compiler
        regions.push_back(Region::Unknown());
        break;
    }
  }
  const TranslationFormula formula(std::move(regions));
  auto program =
      mcsm::vm::CompileFormula(formula, FuzzTable().schema());
  if (!program.ok()) return;  // the compiler's reject matrix, all fine

  // Wire round-trip of a compiled program is exact.
  auto decoded = mcsm::vm::Program::Deserialize(program->Serialize());
  MCSM_CHECK(decoded.ok()) << decoded.status();
  MCSM_CHECK(*decoded == *program);
  (void)program->Disassemble();  // must not crash on any literal bytes

  // The emitted SQL, parsed back, is the same program.
  using mcsm::core::SqlEmitter;
  auto sql = SqlEmitter::ToSql(formula, FuzzTable().schema(), {});
  MCSM_CHECK(sql.ok()) << sql.status();
  auto query = SqlEmitter::FromSql(*sql, FuzzTable().schema());
  MCSM_CHECK(query.ok()) << query.status() << " for " << *sql;
  auto parsed = mcsm::vm::CompileFormula(query->formula, FuzzTable().schema());
  MCSM_CHECK(parsed.ok()) << parsed.status() << " for " << *sql;
  MCSM_CHECK(parsed->Serialize() == program->Serialize()) << *sql;

  // Execute and compare to the Apply oracle row for row.
  auto result = mcsm::vm::Translate(*program, FuzzTable());
  MCSM_CHECK(result.ok()) << result.status();
  size_t out = 0;
  for (size_t row = 0; row < FuzzTable().num_rows(); ++row) {
    const std::optional<std::string> expected =
        formula.Apply(FuzzTable(), row);
    if (!expected.has_value()) continue;
    MCSM_CHECK(out < result->output_rows())
        << "vm covered fewer rows than Apply";
    MCSM_CHECK(result->rows[out] == row)
        << "vm covered row " << result->rows[out] << ", Apply " << row;
    MCSM_CHECK(result->value(out) == *expected)
        << "vm/Apply disagree on row " << row;
    ++out;
  }
  MCSM_CHECK(out == result->output_rows())
      << "vm covered rows Apply does not";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 8192) return 0;
  FuzzWireDecode(data, size);
  FuzzCompileOracle(data, size);
  return 0;
}
