// Bulk translation: apply a discovered formula to every row of a CSV at
// columnar-batch speed (ROADMAP item 4, DESIGN.md §12).
//
//   translate_csv <source.csv> <target.csv> <target-column>
//                 [--emit-program FILE] [--via-sql] [...common flags]
//   translate_csv <source.csv> --program FILE [...common flags]
//
//   common flags: [--output FILE] [--threads N] [--batch N]
//                 [--deadline-ms N] [--max-rows N] [--permissive]
//
// The first form discovers the translation (like discover_csv), compiles it
// to VM bytecode and runs the bytecode over the whole source table; the
// second form replays a program saved earlier with --emit-program (or
// discover_csv --emit-program), skipping discovery entirely. The output CSV
// has one `translated` column holding the covered rows' values in source-row
// order. `--via-sql` builds the program from the emitted SQL instead of the
// formula — parse it back (core::SqlEmitter::FromSql), then compile — so CI
// can diff that path against a saved program. --deadline-ms / --max-rows
// bound the run via
// the shared RunBudget (Ctrl-C trips the same budget); on expiry the
// processed prefix is written and the run reports TRUNCATED. Throughput is
// reported in rows/sec. Without arguments, writes a small demo pair of CSV
// files and translates those.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/matcher.h"
#include "datagen/datasets.h"
#include "relational/csv.h"
#include "vm/compiler.h"
#include "vm/executor.h"

using namespace mcsm;

int RealMain(int argc, const char** argv);

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Same SIGINT idiom as discover_csv: the handler trips the run budget (one
// async-signal-safe atomic CAS); discovery and the VM both stop at their
// next cooperative check and the processed prefix is written out.
RunBudget* g_interrupt_budget = nullptr;

void HandleInterrupt(int /*sig*/) {
  if (g_interrupt_budget != nullptr) g_interrupt_budget->Cancel();
}

Status SlurpFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return Status::NotFound(std::string("cannot open ") + path);
  }
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return Status::OK();
}

Status DumpFile(const char* path, std::string_view bytes) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    return Status::Internal(std::string("cannot write ") + path);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return Status::Internal(std::string("short write to ") + path);
  }
  return Status::OK();
}

/// Writes the single-column output CSV of the covered rows' values.
Status WriteTranslatedCsv(const vm::TranslateResult& result,
                          const std::string& path) {
  relational::Table out = relational::Table::WithTextColumns({"translated"});
  for (size_t v = 0; v < result.output_rows(); ++v) {
    MCSM_RETURN_IF_ERROR(out.AppendTextRow({std::string(result.value(v))}));
  }
  return relational::WriteCsvFile(out, path);
}

int RunDemo() {
  std::printf("no arguments: writing demo CSVs and translating them\n");
  datagen::UserIdOptions options;
  options.rows = 1500;
  datagen::Dataset data = datagen::MakeUserIdDataset(options);
  Status st = relational::WriteCsvFile(data.source, "demo_people.csv");
  if (!st.ok()) return Fail(st);
  st = relational::WriteCsvFile(data.target, "demo_logins.csv");
  if (!st.ok()) return Fail(st);
  std::printf("wrote demo_people.csv and demo_logins.csv; now run e.g.\n"
              "  translate_csv demo_people.csv demo_logins.csv login\n\n");
  const char* argv[] = {"translate_csv", "demo_people.csv", "demo_logins.csv",
                        "login"};
  return RealMain(4, argv);
}

}  // namespace

int RealMain(int argc, const char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <source.csv> <target.csv> <target-column>\n"
                 "          [--emit-program FILE] [--via-sql]\n"
                 "       %s <source.csv> --program FILE\n"
                 "  common: [--output FILE] [--threads N] [--batch N]\n"
                 "          [--deadline-ms N] [--max-rows N] [--permissive]\n",
                 argv[0], argv[0]);
    return 2;
  }

  const char* source_path = argv[1];
  const char* target_path = nullptr;
  const char* target_column = nullptr;
  const char* program_path = nullptr;
  const char* emit_program_path = nullptr;
  std::string output_path = "translated.csv";
  bool via_sql = false;
  core::SearchOptions options;
  relational::CsvOptions csv_options;
  vm::TranslateOptions translate_options;
  BudgetLimits limits;
  int i = 2;
  if (i < argc && argv[i][0] != '-') target_path = argv[i++];
  if (i < argc && argv[i][0] != '-') target_column = argv[i++];
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--program") == 0 && i + 1 < argc) {
      program_path = argv[++i];
    } else if (std::strcmp(argv[i], "--emit-program") == 0 && i + 1 < argc) {
      emit_program_path = argv[++i];
    } else if (std::strcmp(argv[i], "--via-sql") == 0) {
      via_sql = true;
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      translate_options.num_threads =
          static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      translate_options.batch_rows = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      limits.wall_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-rows") == 0 && i + 1 < argc) {
      limits.max_rows_translated =
          static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--permissive") == 0) {
      csv_options.permissive = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  const bool discovery_mode = program_path == nullptr;
  if (discovery_mode && (target_path == nullptr || target_column == nullptr)) {
    std::fprintf(stderr,
                 "error: need <target.csv> <target-column> (or --program)\n");
    return 2;
  }
  if (!discovery_mode && via_sql) {
    std::fprintf(stderr,
                 "error: --via-sql needs the discovered formula; it cannot "
                 "be combined with --program\n");
    return 2;
  }

  auto source = relational::ReadCsvFile(source_path, csv_options);
  if (!source.ok()) return Fail(source.status());

  RunBudget budget(limits);
  g_interrupt_budget = &budget;
  std::signal(SIGINT, HandleInterrupt);
  struct InterruptScope {
    ~InterruptScope() {
      std::signal(SIGINT, SIG_DFL);
      g_interrupt_budget = nullptr;  // budget dies with this scope
    }
  } interrupt_scope;

  // Obtain the program: replay a saved one, or discover + compile.
  vm::Program program;
  if (!discovery_mode) {
    std::string wire;
    Status st = SlurpFile(program_path, &wire);
    if (!st.ok()) return Fail(st);
    auto decoded = vm::Program::Deserialize(wire);
    if (!decoded.ok()) return Fail(decoded.status());
    program = std::move(decoded.value());
    std::printf("program : %s (%zu wire bytes)\n", program_path, wire.size());
  } else {
    auto target = relational::ReadCsvFile(target_path, csv_options);
    if (!target.ok()) return Fail(target.status());
    auto column = target->schema().FindColumn(target_column);
    if (!column.has_value()) {
      std::fprintf(stderr, "error: no column '%s' in %s\n", target_column,
                   target_path);
      return 2;
    }
    options.env.shared_budget = &budget;
    core::SqlEmitter::Options sql_options;
    sql_options.source_table = "t1";
    auto d = core::DiscoverTranslation(*source, *target, *column, options,
                                       sql_options);
    if (!d.ok()) return Fail(d.status());
    if (d->truncated()) {
      std::fprintf(stderr,
                   "error: discovery truncated (%s budget exhausted) before "
                   "a complete formula; raise --deadline-ms\n",
                   BudgetTripName(d->search.budget_trip));
      return 1;
    }
    std::printf("formula : %s\n",
                d->formula().ToString(source->schema()).c_str());
    core::TranslationFormula formula = d->formula();
    if (via_sql) {
      // Compile what the emitted SQL says, not the formula it came from.
      auto sql = core::SqlEmitter::ToSql(formula, source->schema(),
                                         sql_options);
      if (!sql.ok()) return Fail(sql.status());
      std::printf("sql     : %s\n", sql->c_str());
      auto query = core::SqlEmitter::FromSql(*sql, source->schema());
      if (!query.ok()) return Fail(query.status());
      formula = std::move(query->formula);
    }
    auto compiled = vm::CompileFormula(formula, source->schema());
    if (!compiled.ok()) return Fail(compiled.status());
    program = std::move(compiled.value());
    if (emit_program_path != nullptr) {
      Status st = DumpFile(emit_program_path, program.Serialize());
      if (!st.ok()) return Fail(st);
      std::printf("program : saved to %s\n", emit_program_path);
      std::fprintf(stderr, "%s", program.Disassemble().c_str());
    }
  }

  // Translate and write the output CSV. Only this phase is timed: the
  // rows/sec figure is the VM's, not the CSV parser's.
  size_t rows_in = source->num_rows();
  translate_options.budget = &budget;
  WallTimer timer;
  auto result = vm::Translate(program, *source, translate_options);
  const double seconds = timer.Seconds();
  if (!result.ok()) return Fail(result.status());
  if (result->truncated) {
    std::printf("TRUNCATED: %s budget exhausted after %zu / %zu rows\n",
                BudgetTripName(result->budget_trip), result->rows_processed,
                rows_in);
    rows_in = result->rows_processed;
  }
  Status st = WriteTranslatedCsv(*result, output_path);
  if (!st.ok()) return Fail(st);

  const double rows_per_sec = seconds > 0 ? rows_in / seconds : 0;
  std::printf("%s: %zu rows in -> %zu translated in %.1f ms (%.0f rows/sec, "
              "program from %s, %zu threads)\n",
              output_path.c_str(), rows_in, result->output_rows(),
              seconds * 1e3, rows_per_sec,
              !discovery_mode ? "file" : (via_sql ? "sql" : "formula"),
              translate_options.num_threads);
  return 0;
}

int main(int argc, const char** argv) {
  if (argc == 1) return RunDemo();
  return RealMain(argc, argv);
}
