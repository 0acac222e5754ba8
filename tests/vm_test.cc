#include "vm/program.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/search.h"
#include "core/sql_emitter.h"
#include "datagen/datasets.h"
#include "vm/compiler.h"
#include "vm/executor.h"

namespace mcsm::vm {
namespace {

using core::Region;
using core::TranslationFormula;
using relational::Schema;
using relational::Table;
using relational::Value;

Schema NameSchema() {
  return Table::WithTextColumns({"first", "middle", "last"}).schema();
}

/// The paper's Section 4.1 login formula with a separator literal.
TranslationFormula LoginFormula() {
  return TranslationFormula(
      {Region::Span(0, 1, 1), Region::Literal(", "), Region::SpanToEnd(2, 1)});
}

/// Hand table with every per-row hazard: NULLs, empty strings, values
/// shorter than the spans, multi-byte-safe plain ASCII.
Table HazardTable() {
  Table t = Table::WithTextColumns({"first", "middle", "last"});
  EXPECT_TRUE(t.AppendTextRow({"henry", "j", "warner"}).ok());
  EXPECT_TRUE(t.AppendTextRow({"", "x", "poe"}).ok());  // empty first
  EXPECT_TRUE(t.AppendRow({Value::MakeNull(), Value("q"), Value("null-first")})
                  .ok());
  EXPECT_TRUE(t.AppendTextRow({"a", "b", ""}).ok());  // empty last
  EXPECT_TRUE(
      t.AppendRow({Value("solo"), Value::MakeNull(), Value::MakeNull()}).ok());
  EXPECT_TRUE(t.AppendTextRow({"mary", "anne", "o'hara"}).ok());
  return t;
}

/// Recomputes the trailing FNV-1a checksum after a test mutates wire bytes,
/// so the mutation reaches the layer under test instead of tripping the
/// checksum first.
void FixChecksum(std::string* wire) {
  ASSERT_GE(wire->size(), 4u);
  uint32_t h = 2166136261u;
  for (size_t i = 0; i + 4 < wire->size(); ++i) {
    h ^= static_cast<unsigned char>((*wire)[i]);
    h *= 16777619u;
  }
  for (size_t i = 0; i < 4; ++i) {
    (*wire)[wire->size() - 4 + i] = static_cast<char>((h >> (8 * i)) & 0xff);
  }
}

/// Per-row oracle: Apply over every source row.
std::vector<std::optional<std::string>> ApplyAll(const TranslationFormula& f,
                                                 const Table& source) {
  std::vector<std::optional<std::string>> out;
  out.reserve(source.num_rows());
  for (size_t row = 0; row < source.num_rows(); ++row) {
    out.push_back(f.Apply(source, row));
  }
  return out;
}

/// The SQL leg of the acceptance contract: the emitted query, parsed back,
/// compiles to the same wire bytes as the formula itself, so running the SQL
/// is running the very program the VM legs check.
void ExpectSqlCompilesToSameWire(const TranslationFormula& formula,
                                 const Schema& schema) {
  auto program = CompileFormula(formula, schema);
  ASSERT_TRUE(program.ok()) << program.status();
  auto sql = core::SqlEmitter::ToSql(formula, schema, {});
  ASSERT_TRUE(sql.ok()) << sql.status();
  auto query = core::SqlEmitter::FromSql(*sql, schema);
  ASSERT_TRUE(query.ok()) << query.status() << " for " << *sql;
  auto parsed = CompileFormula(query->formula, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << " for " << *sql;
  EXPECT_EQ(parsed->Serialize(), program->Serialize()) << *sql;
}

/// The acceptance contract of DESIGN.md §12: for one formula over one
/// source table, the VM (at several thread counts and batch sizes) and
/// per-row Apply must agree byte for byte on both which rows are covered
/// and what they translate to, and the emitted SQL must parse back to the
/// same program.
void ExpectThreeWayAgreement(const TranslationFormula& formula,
                             const Table& source) {
  const auto oracle = ApplyAll(formula, source);
  ExpectSqlCompilesToSameWire(formula, source.schema());

  std::vector<std::string> covered_values;
  std::vector<uint32_t> covered_rows;
  for (size_t row = 0; row < oracle.size(); ++row) {
    if (oracle[row].has_value()) {
      covered_values.push_back(*oracle[row]);
      covered_rows.push_back(static_cast<uint32_t>(row));
    }
  }

  // VM path, across thread counts and batch sizes (one row per batch, a
  // batch size that does not divide the row count, to exercise the ragged
  // tail, and the default).
  auto program = CompileFormula(formula, source.schema());
  ASSERT_TRUE(program.ok()) << program.status();
  std::string first_bytes;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
      TranslateOptions options;
      options.num_threads = threads;
      options.batch_rows = batch;
      auto result = Translate(*program, source, options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_FALSE(result->truncated);
      EXPECT_EQ(result->rows_processed, source.num_rows());
      ASSERT_EQ(result->output_rows(), covered_rows.size())
          << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(result->rows, covered_rows);
      for (size_t i = 0; i < covered_rows.size(); ++i) {
        ASSERT_EQ(result->value(i), covered_values[i])
            << "row " << covered_rows[i] << " threads=" << threads
            << " batch=" << batch;
      }
      if (first_bytes.empty() && !result->bytes.empty()) {
        first_bytes = result->bytes;
      } else if (!result->bytes.empty()) {
        EXPECT_EQ(result->bytes, first_bytes)
            << "output not byte-identical at threads=" << threads
            << " batch=" << batch;
      }
    }
  }
}

/// Discovers a formula for `data` and runs the three-way agreement over the
/// full source table.
void DiscoverAndAgree(const datagen::Dataset& data,
                      core::SearchOptions options) {
  auto d = core::DiscoverTranslation(data.source, data.target,
                                     data.target_column, options);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(d->formula().IsComplete())
      << d->formula().ToString(data.source.schema());
  ExpectThreeWayAgreement(d->formula(), data.source);
}

core::SearchOptions FastOptions() {
  core::SearchOptions o;
  o.sample_fraction = 0.10;
  return o;
}

// ---------------------------------------------------------------------------
// Compiler goldens.

TEST(VmCompilerTest, LoginFormulaGolden) {
  auto program = CompileFormula(LoginFormula(), NameSchema());
  ASSERT_TRUE(program.ok()) << program.status();
  const std::vector<Instruction> expected = {
      {OpCode::kLoadCol, 0, 0, 0},  {OpCode::kGuardLen, 0, 1, 0},
      {OpCode::kLoadCol, 1, 2, 0}, {OpCode::kGuardLen, 1, 1, 0},
      {OpCode::kEmitSub, 0, 0, 1}, {OpCode::kEmitLit, 0, 2, 0},
      {OpCode::kEmitTail, 1, 0, 0}, {OpCode::kRet, 0, 0, 0},
  };
  EXPECT_EQ(program->code(), expected);
  EXPECT_EQ(program->literals(), ", ");
  EXPECT_EQ(program->num_registers(), 2u);
  EXPECT_EQ(program->min_columns(), 3u);
}

TEST(VmCompilerTest, DisassemblyGolden) {
  auto program = CompileFormula(LoginFormula(), NameSchema());
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->Disassemble(),
            "; vm program v1: 8 instructions, 2 registers, needs >= 3 source "
            "columns, 2 literal bytes\n"
            "   0: load  r0, col 0\n"
            "   1: guard r0, len >= 1\n"
            "   2: load  r1, col 2\n"
            "   3: guard r1, len >= 1\n"
            "   4: emit  r0[0..1)\n"
            "   5: lit   \", \"\n"
            "   6: tail  r1[0..]\n"
            "   7: ret\n");
}

TEST(VmCompilerTest, SharedRegisterGetsMaxGuard) {
  // Two spans of the same column: one register, one guard at the larger
  // requirement (a [2-4] span needs 4 chars; the [1-n] tail needs 1).
  TranslationFormula f({Region::SpanToEnd(1, 1), Region::Span(1, 2, 4)});
  auto program = CompileFormula(f, NameSchema());
  ASSERT_TRUE(program.ok()) << program.status();
  const std::vector<Instruction> expected = {
      {OpCode::kLoadCol, 0, 1, 0},
      {OpCode::kGuardLen, 0, 4, 0},
      {OpCode::kEmitTail, 0, 0, 0},
      {OpCode::kEmitSub, 0, 1, 3},
      {OpCode::kRet, 0, 0, 0},
  };
  EXPECT_EQ(program->code(), expected);
  EXPECT_EQ(program->num_registers(), 1u);
  EXPECT_EQ(program->min_columns(), 2u);
  ExpectSqlCompilesToSameWire(f, NameSchema());
}

TEST(VmCompilerTest, RejectsASupersetOfWhatSqlEmitterRejects) {
  const Schema schema = NameSchema();
  // Incomplete and empty formulas: InvalidArgument, same as SqlEmitter.
  TranslationFormula incomplete(
      {Region::Unknown(), Region::SpanToEnd(2, 1)});
  EXPECT_TRUE(CompileFormula(incomplete, schema).status().IsInvalidArgument());
  EXPECT_TRUE(core::SqlEmitter::ToSql(incomplete, schema, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      CompileFormula(TranslationFormula{}, schema).status()
          .IsInvalidArgument());
  // Column beyond the schema: OutOfRange, same as SqlEmitter.
  TranslationFormula oob({Region::SpanToEnd(7, 1)});
  EXPECT_TRUE(CompileFormula(oob, schema).status().IsOutOfRange());
  EXPECT_TRUE(
      core::SqlEmitter::ToSql(oob, schema, {}).status().IsOutOfRange());

  // What only the compiler rejects: more columns than the VM has registers,
  // and a span starting at 0. ToSql writes both, and the SQL parses back,
  // but the parse -> compile path then fails as loudly as CompileFormula.
  std::vector<std::string> names;
  std::vector<Region> spans;
  for (size_t c = 0; c <= Program::kMaxRegisters; ++c) {
    names.push_back("c" + std::to_string(c));
    spans.push_back(Region::SpanToEnd(c, 1));
  }
  const Schema wide = Table::WithTextColumns(names).schema();
  for (const auto& [f, s] :
       {std::pair{TranslationFormula(spans), wide},
        std::pair{TranslationFormula({Region::Span(0, 0, 1)}), schema}}) {
    EXPECT_TRUE(CompileFormula(f, s).status().IsInvalidArgument());
    auto sql = core::SqlEmitter::ToSql(f, s, {});
    ASSERT_TRUE(sql.ok()) << sql.status();
    auto query = core::SqlEmitter::FromSql(*sql, s);
    ASSERT_TRUE(query.ok()) << query.status();
    EXPECT_EQ(query->formula, f);
    EXPECT_TRUE(
        CompileFormula(query->formula, s).status().IsInvalidArgument());
  }
}

TEST(VmCompilerTest, RejectsMalformedSpans) {
  const Schema schema = NameSchema();
  EXPECT_TRUE(CompileFormula(TranslationFormula({Region::Span(0, 0, 1)}),
                             schema)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CompileFormula(TranslationFormula({Region::Span(0, 3, 2)}),
                             schema)
                  .status()
                  .IsInvalidArgument());
}

TEST(VmCompilerTest, AllLiteralFormulaCoversEveryRow) {
  // No column references: min_columns 0, no guards, every row covered —
  // in all three backends (the SQL form has no WHERE clause).
  TranslationFormula f({Region::Literal("fixed")});
  auto program = CompileFormula(f, NameSchema());
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->min_columns(), 0u);
  EXPECT_EQ(program->num_registers(), 0u);
  ExpectThreeWayAgreement(f, HazardTable());
}

// ---------------------------------------------------------------------------
// Wire form.

TEST(VmWireTest, RoundTripIsExact) {
  auto program = CompileFormula(LoginFormula(), NameSchema());
  ASSERT_TRUE(program.ok());
  const std::string wire = program->Serialize();
  auto decoded = Program::Deserialize(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, *program);
  EXPECT_EQ(decoded->Serialize(), wire);
}

TEST(VmWireTest, MalformedWireRejectedWithStatus) {
  auto program = CompileFormula(LoginFormula(), NameSchema());
  ASSERT_TRUE(program.ok());
  const std::string wire = program->Serialize();

  EXPECT_TRUE(Program::Deserialize("").status().IsParseError());
  EXPECT_TRUE(Program::Deserialize("MCVM").status().IsParseError());

  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_TRUE(Program::Deserialize(bad_magic).status().IsParseError());

  // Version skew: future versions must be refused, not misparsed. The
  // version check precedes the checksum so a skewed header is reported as
  // skew even with a stale checksum.
  std::string skewed = wire;
  skewed[4] = 9;
  EXPECT_TRUE(Program::Deserialize(skewed).status().IsParseError());

  std::string truncated = wire.substr(0, wire.size() - 5);
  EXPECT_TRUE(Program::Deserialize(truncated).status().IsParseError());

  std::string trailing = wire + "extra";
  EXPECT_TRUE(Program::Deserialize(trailing).status().IsParseError());

  std::string corrupt = wire;
  corrupt[wire.size() / 2] ^= 0x40;
  EXPECT_TRUE(Program::Deserialize(corrupt).status().IsParseError());
}

TEST(VmWireTest, BadOpcodeRejectedBehindValidChecksum) {
  auto program = CompileFormula(LoginFormula(), NameSchema());
  ASSERT_TRUE(program.ok());
  std::string wire = program->Serialize();
  // First instruction's opcode byte sits right after the 24-byte header.
  wire[24] = static_cast<char>(0xee);
  FixChecksum(&wire);
  auto decoded = Program::Deserialize(wire);
  EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
}

TEST(VmWireTest, InvalidProgramBehindValidWireRejectedByValidate) {
  // Structurally sound wire bytes carrying a semantically bad program
  // (register read before load) must come back as a Status from Validate,
  // not execute.
  Program bad;
  bad.set_num_registers(1);
  bad.set_min_columns(1);
  bad.Append({OpCode::kEmitTail, 0, 0, 0});  // r0 never loaded
  bad.Append({OpCode::kRet, 0, 0, 0});
  auto decoded = Program::Deserialize(bad.Serialize());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

TEST(VmWireTest, ProgramPastTheColumnCapRunsButDoesNotDecode) {
  // The column cap bounds what Deserialize accepts from the wire. A program
  // compiled against a real schema wider than the cap validates and runs,
  // as Apply would, but its wire form is refused.
  std::vector<std::string> names;
  for (size_t c = 0; c <= Program::kMaxColumns; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  Table t = Table::WithTextColumns(names);
  std::vector<std::string> row(names.size(), "");
  row.back() = "value";
  ASSERT_TRUE(t.AppendTextRow(row).ok());
  auto program = CompileFormula(
      TranslationFormula({Region::SpanToEnd(Program::kMaxColumns, 1)}),
      t.schema());
  ASSERT_TRUE(program.ok()) << program.status();
  auto result = Translate(*program, t);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->output_rows(), 1u);
  EXPECT_EQ(result->value(0), "value");
  auto decoded = Program::Deserialize(program->Serialize());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

TEST(VmWireTest, HexRoundTripAndRejects) {
  const std::string bytes = std::string("\x00\x7f\xff\x10", 4);
  EXPECT_EQ(BytesToHex(bytes), "007fff10");
  auto back = HexToBytes("007fff10");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
  EXPECT_TRUE(HexToBytes("abc").status().IsParseError());
  EXPECT_TRUE(HexToBytes("zz").status().IsParseError());
}

// ---------------------------------------------------------------------------
// Executor semantics.

TEST(VmExecutorTest, HazardRowsMatchApplyAndSql) {
  ExpectThreeWayAgreement(LoginFormula(), HazardTable());
}

TEST(VmExecutorTest, FixedSpanNeedsFullWidth) {
  // A [2-4] span requires 4 characters, not 2: "abc" must NOT yield "bc".
  Table t = Table::WithTextColumns({"first", "middle", "last"});
  ASSERT_TRUE(t.AppendTextRow({"abc", "", ""}).ok());
  ASSERT_TRUE(t.AppendTextRow({"abcd", "", ""}).ok());
  ExpectThreeWayAgreement(TranslationFormula({Region::Span(0, 2, 4)}), t);
}

TEST(VmExecutorTest, RejectsTableNarrowerThanProgram) {
  auto program = CompileFormula(LoginFormula(), NameSchema());
  ASSERT_TRUE(program.ok());
  Table narrow = Table::WithTextColumns({"only"});
  ASSERT_TRUE(narrow.AppendTextRow({"value"}).ok());
  EXPECT_TRUE(
      Translate(*program, narrow).status().IsInvalidArgument());
}

TEST(VmExecutorTest, GuardlessEmitsStayInBounds) {
  // A hand-built program with NO guards and a span far past every value:
  // emits must fail such rows cleanly (Apply semantics), never read out of
  // bounds. This is the hostile-wire-program safety property.
  Program p;
  p.set_num_registers(1);
  p.set_min_columns(1);
  p.Append({OpCode::kLoadCol, 0, 0, 0});
  p.Append({OpCode::kEmitSub, 0, 1000, 5, });
  p.Append({OpCode::kRet, 0, 0, 0});
  ASSERT_TRUE(p.Validate().ok());
  Table t = Table::WithTextColumns({"v"});
  ASSERT_TRUE(t.AppendTextRow({"short"}).ok());
  auto result = Translate(p, t);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output_rows(), 0u);
  EXPECT_EQ(result->rows_processed, 1u);
}

TEST(VmExecutorTest, PartialEmitRollsBackWholeRow) {
  // first emits fine, then the last-column emit fails: the row must
  // contribute zero bytes, not the partial prefix.
  Table t = Table::WithTextColumns({"first", "middle", "last"});
  ASSERT_TRUE(t.AppendTextRow({"ok", "x", ""}).ok());
  Program p;
  p.set_num_registers(2);
  p.set_min_columns(3);
  p.Append({OpCode::kLoadCol, 0, 0, 0});
  p.Append({OpCode::kLoadCol, 1, 2, 0});
  p.Append({OpCode::kEmitSub, 0, 0, 2});
  p.Append({OpCode::kEmitTail, 1, 0, 0});  // last is empty -> row fails
  p.Append({OpCode::kRet, 0, 0, 0});
  ASSERT_TRUE(p.Validate().ok());
  auto result = Translate(p, t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output_rows(), 0u);
  EXPECT_TRUE(result->bytes.empty());
}

// ---------------------------------------------------------------------------
// Merge determinism: the parallel merge places every batch's chunk by prefix
// sums, so batches that cover nothing must leave no trace in the output.

/// Login-formula rows, covered exactly at `covered` (the others have an
/// empty first name, which the first[1-1] span cannot fit).
Table SparselyCoveredTable(size_t rows, const std::vector<size_t>& covered) {
  Table t = Table::WithTextColumns({"first", "middle", "last"});
  std::vector<bool> is_covered(rows, false);
  for (const size_t row : covered) is_covered[row] = true;
  for (size_t row = 0; row < rows; ++row) {
    const std::string n = std::to_string(row);
    EXPECT_TRUE(
        t.AppendTextRow({is_covered[row] ? "f" + n : "", "m", "last" + n})
            .ok());
  }
  return t;
}

TEST(VmMergeTest, BatchesThatCoverNoRowLeaveNoTrace) {
  // At batch size 7 the 200-row layout has empty leading batches, runs of
  // empty batches between covered ones, a fully covered batch (70-76) and
  // a covered ragged tail; at batch size 1 most batches are empty.
  const std::vector<std::vector<size_t>> layouts = {
      {15, 16, 17, 49, 70, 71, 72, 73, 74, 75, 76, 199},
      {},      // no row covered at all
      {0},     // only the first row
      {199},   // only the last row
  };
  for (const std::vector<size_t>& covered : layouts) {
    SCOPED_TRACE(testing::Message() << covered.size() << " covered rows");
    const Table t = SparselyCoveredTable(200, covered);
    ExpectThreeWayAgreement(LoginFormula(), t);
    auto program = CompileFormula(LoginFormula(), t.schema());
    ASSERT_TRUE(program.ok());
    TranslateOptions options;
    options.num_threads = 4;
    options.batch_rows = 7;
    auto result = Translate(*program, t, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows, std::vector<uint32_t>(covered.begin(),
                                                  covered.end()));
    ASSERT_EQ(result->offsets.size(), covered.size() + 1);
    EXPECT_EQ(result->offsets.back(), result->bytes.size());
  }
}

// ---------------------------------------------------------------------------
// Budget integration.

Table WideTable(size_t rows) {
  Table t = Table::WithTextColumns({"first", "middle", "last"});
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendTextRow({"henry" + std::to_string(i), "j", "warner"})
                    .ok());
  }
  return t;
}

TEST(VmBudgetTest, RowCapTripsMidBatchWithCleanPartial) {
  const Table t = WideTable(1000);
  auto program = CompileFormula(LoginFormula(), t.schema());
  ASSERT_TRUE(program.ok());
  BudgetLimits limits;
  limits.max_rows_translated = 100;
  RunBudget budget(limits);
  TranslateOptions options;
  options.budget = &budget;
  auto result = Translate(*program, t, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->budget_trip, BudgetTrip::kRows);
  // Translate charges in kChargeQuantum=64 row quanta before executing: the
  // first quantum fits under the 100-row cap, the second trips — so the
  // clean partial is exactly one quantum.
  EXPECT_EQ(result->rows_processed, Executor::kChargeQuantum);
  // And the partial is exactly Apply over that prefix.
  const auto oracle = ApplyAll(LoginFormula(), t);
  ASSERT_EQ(result->output_rows(), result->rows_processed);
  for (size_t i = 0; i < result->output_rows(); ++i) {
    EXPECT_EQ(result->value(i), *oracle[result->rows[i]]);
  }
}

TEST(VmBudgetTest, ParallelTripKeepsContiguousPrefix) {
  const Table t = WideTable(2000);
  auto program = CompileFormula(LoginFormula(), t.schema());
  ASSERT_TRUE(program.ok());
  BudgetLimits limits;
  limits.max_rows_translated = 500;
  RunBudget budget(limits);
  TranslateOptions options;
  options.budget = &budget;
  options.num_threads = 4;
  options.batch_rows = 100;
  auto result = Translate(*program, t, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->budget_trip, BudgetTrip::kRows);
  EXPECT_GT(result->rows_processed, 0u);
  EXPECT_LT(result->rows_processed, t.num_rows());
  // Whatever prefix survived must be gapless and byte-identical to Apply.
  const auto oracle = ApplyAll(LoginFormula(), t);
  ASSERT_EQ(result->output_rows(), result->rows_processed);
  for (size_t i = 0; i < result->output_rows(); ++i) {
    EXPECT_EQ(result->rows[i], i);
    EXPECT_EQ(result->value(i), *oracle[i]);
  }
}

TEST(VmBudgetTest, RowCapCutsTheSamePrefixAtEveryThreadCountAndBatchSize) {
  // The rows axis is admitted before any row runs, so where a cap cuts
  // depends on neither the thread count, the batch size nor the scheduling:
  // every run is byte-identical to the inline run.
  const Table t = WideTable(2000);
  auto program = CompileFormula(LoginFormula(), t.schema());
  ASSERT_TRUE(program.ok());
  for (const uint64_t cap : {1, 63, 64, 65, 500, 1999, 2000, 5000}) {
    BudgetLimits limits;
    limits.max_rows_translated = cap;
    RunBudget inline_budget(limits);
    TranslateOptions inline_options;
    inline_options.budget = &inline_budget;
    auto expected = Translate(*program, t, inline_options);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(expected->truncated, cap < t.num_rows()) << cap;
    EXPECT_EQ(expected->budget_trip,
              cap < t.num_rows() ? BudgetTrip::kRows : BudgetTrip::kNone);
    for (const size_t threads : {1, 2, 4, 8}) {
      for (const size_t batch_rows : {7, 100, 4096}) {
        for (int repeat = 0; repeat < 3; ++repeat) {
          RunBudget budget(limits);
          TranslateOptions options;
          options.budget = &budget;
          options.num_threads = threads;
          options.batch_rows = batch_rows;
          auto result = Translate(*program, t, options);
          ASSERT_TRUE(result.ok()) << result.status();
          SCOPED_TRACE(testing::Message() << "cap=" << cap << " threads="
                                          << threads << " batch_rows="
                                          << batch_rows);
          EXPECT_EQ(result->rows_processed, expected->rows_processed);
          EXPECT_EQ(result->truncated, expected->truncated);
          EXPECT_EQ(result->budget_trip, expected->budget_trip);
          EXPECT_EQ(result->rows, expected->rows);
          EXPECT_EQ(result->offsets, expected->offsets);
          EXPECT_EQ(result->bytes, expected->bytes);
        }
      }
    }
  }
}

TEST(VmBudgetTest, CancelledBudgetStopsBeforeAnyRow) {
  const Table t = WideTable(100);
  auto program = CompileFormula(LoginFormula(), t.schema());
  ASSERT_TRUE(program.ok());
  RunBudget budget(BudgetLimits{});
  budget.Cancel();
  TranslateOptions options;
  options.budget = &budget;
  auto result = Translate(*program, t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->budget_trip, BudgetTrip::kCancelled);
  EXPECT_EQ(result->rows_processed, 0u);
  EXPECT_EQ(result->output_rows(), 0u);
}

// ---------------------------------------------------------------------------
// Differential suite: discovered formulas over every datagen family,
// VM vs parsed-back SQL vs Apply (DESIGN.md §12 acceptance contract).

TEST(VmDifferentialTest, UserIdDataset) {
  datagen::UserIdOptions o;
  o.rows = 2000;
  DiscoverAndAgree(datagen::MakeUserIdDataset(o), FastOptions());
}

TEST(VmDifferentialTest, TimeDataset) {
  datagen::TimeOptions o;
  o.rows = 3000;
  DiscoverAndAgree(datagen::MakeTimeDataset(o), FastOptions());
}

TEST(VmDifferentialTest, MergedNamesDataset) {
  datagen::MergedNamesOptions o;
  o.rows = 4000;
  o.distinct_names = 800;
  DiscoverAndAgree(datagen::MakeMergedNamesDataset(o), FastOptions());
}

TEST(VmDifferentialTest, MergedNamesCommaSeparator) {
  datagen::MergedNamesOptions o;
  o.rows = 3000;
  o.distinct_names = 600;
  o.comma_separator = true;
  core::SearchOptions so = FastOptions();
  so.detect_separators = true;
  DiscoverAndAgree(datagen::MakeMergedNamesDataset(o), so);
}

TEST(VmDifferentialTest, CitationDataset) {
  datagen::CitationOptions o;
  o.rows = 5000;
  core::SearchOptions so;
  so.sample_fraction = 0.02;
  DiscoverAndAgree(datagen::MakeCitationDataset(o), so);
}

TEST(VmDifferentialTest, DateFormatDataset) {
  datagen::DateFormatOptions o;
  o.rows = 3000;
  core::SearchOptions so = FastOptions();
  so.detect_separators = true;
  DiscoverAndAgree(datagen::MakeDateFormatDataset(o), so);
}

TEST(VmDifferentialTest, PartNumberDataset) {
  datagen::PartNumberOptions o;
  o.rows = 3000;
  core::SearchOptions so = FastOptions();
  so.detect_separators = true;
  DiscoverAndAgree(datagen::MakePartNumberDataset(o), so);
}

}  // namespace
}  // namespace mcsm::vm
