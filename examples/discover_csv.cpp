// Command-line discovery over the user's own data:
//
//   discover_csv <source.csv> <target.csv> <target-column>
//                [--separators] [--fraction F] [--all]
//                [--permissive] [--deadline-ms N]
//                [--trace FILE] [--explain] [--emit-program FILE]
//
// Loads two CSV files (header row = column names, all columns TEXT), runs
// the multi-column substring search and prints the discovered translation
// formula, its coverage, and the equivalent SQL. With --all, runs the
// match-and-remove loop and reports every dominant formula plus the merged
// rule (Section 7). --permissive skips malformed CSV rows (reporting how
// many were dropped) instead of rejecting the file; --deadline-ms bounds the
// search wall-clock — on expiry the best partial formula found so far is
// printed, marked TRUNCATED. Ctrl-C during the search does the same thing:
// the SIGINT handler trips the run budget (one atomic CAS, async-signal-safe)
// and the search stops at its next check, printing the best partial formula
// instead of dying with nothing. --trace FILE writes one JSON trace event
// per line (JSONL) describing every scoring/voting/refinement decision;
// --explain prints a human-readable "why this formula won" report after the
// run. Both may be combined. --emit-program FILE compiles the discovered
// formula to VM bytecode (DESIGN.md §12), writes the wire form to FILE for
// later replay by `translate_csv --program FILE`, and prints the disassembly
// to stderr. Without arguments, writes a small demo pair of CSV files and
// runs on those.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/trace.h"
#include "core/explain.h"
#include "core/matcher.h"
#include "core/rule_merger.h"
#include "datagen/datasets.h"
#include "relational/csv.h"
#include "vm/compiler.h"

using namespace mcsm;

int RealMain(int argc, const char** argv);

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// SIGINT cancellation: the handler may only touch async-signal-safe state;
// RunBudget::Cancel() is a single atomic compare-and-swap, so tripping the
// search's budget from here is legal. The search then stops at its next
// cooperative budget check and returns the best partial formula, which the
// normal TRUNCATED path prints (budget axis: "cancelled").
RunBudget* g_interrupt_budget = nullptr;

void HandleInterrupt(int /*sig*/) {
  if (g_interrupt_budget != nullptr) g_interrupt_budget->Cancel();
}

int RunDemo() {
  std::printf("no arguments: writing demo CSVs and running on them\n");
  datagen::UserIdOptions options;
  options.rows = 1500;
  datagen::Dataset data = datagen::MakeUserIdDataset(options);
  Status st = relational::WriteCsvFile(data.source, "demo_people.csv");
  if (!st.ok()) return Fail(st);
  st = relational::WriteCsvFile(data.target, "demo_logins.csv");
  if (!st.ok()) return Fail(st);
  std::printf("wrote demo_people.csv and demo_logins.csv; now run e.g.\n"
              "  discover_csv demo_people.csv demo_logins.csv login --all\n\n");
  const char* argv[] = {"discover_csv", "demo_people.csv", "demo_logins.csv",
                        "login", "--all"};
  return RealMain(5, argv);
}

}  // namespace

int RealMain(int argc, const char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <source.csv> <target.csv> <target-column> "
                 "[--separators] [--fraction F] [--all] "
                 "[--permissive] [--deadline-ms N] "
                 "[--trace FILE] [--explain] [--emit-program FILE]\n",
                 argv[0]);
    return 2;
  }

  core::SearchOptions options;
  relational::CsvOptions csv_options;
  bool all = false;
  bool explain = false;
  const char* trace_path = nullptr;
  const char* emit_program_path = nullptr;
  // The deadline goes into a local BudgetLimits (not options.env.budget):
  // it feeds the shared RunBudget below, and Env::Validate rejects setting
  // both a shared budget and per-search limits.
  BudgetLimits deadline;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--separators") == 0) {
      options.detect_separators = true;
    } else if (std::strcmp(argv[i], "--fraction") == 0 && i + 1 < argc) {
      options.sample_fraction = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
    } else if (std::strcmp(argv[i], "--permissive") == 0) {
      csv_options.permissive = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline.wall_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--emit-program") == 0 && i + 1 < argc) {
      emit_program_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  // Trace plumbing: --trace streams JSONL to a file; --explain captures
  // events in memory for the end-of-run report; both tee into one sink.
  std::unique_ptr<JsonlTraceSink> jsonl_sink;
  std::unique_ptr<InMemoryTraceSink> memory_sink;
  std::unique_ptr<TeeTraceSink> tee_sink;
  if (trace_path != nullptr) {
    auto opened = JsonlTraceSink::Open(trace_path);
    if (!opened.ok()) return Fail(opened.status());
    jsonl_sink = std::move(opened.value());
  }
  if (explain) memory_sink = std::make_unique<InMemoryTraceSink>();
  if (jsonl_sink != nullptr && memory_sink != nullptr) {
    tee_sink =
        std::make_unique<TeeTraceSink>(jsonl_sink.get(), memory_sink.get());
    options.env.trace = tee_sink.get();
  } else if (jsonl_sink != nullptr) {
    options.env.trace = jsonl_sink.get();
  } else if (memory_sink != nullptr) {
    options.env.trace = memory_sink.get();
  }

  auto report_drops = [](const char* path,
                         const relational::CsvReadReport& report) {
    if (report.rows_dropped == 0) return;
    std::printf("%s: dropped %zu malformed row(s), kept %zu\n", path,
                report.rows_dropped, report.rows_kept);
    for (const auto& example : report.first_errors) {
      std::printf("  e.g. %s\n", example.c_str());
    }
  };
  relational::CsvReadReport source_report, target_report;
  auto source = relational::ReadCsvFile(argv[1], csv_options, &source_report);
  if (!source.ok()) return Fail(source.status());
  report_drops(argv[1], source_report);
  auto target = relational::ReadCsvFile(argv[2], csv_options, &target_report);
  if (!target.ok()) return Fail(target.status());
  report_drops(argv[2], target_report);
  auto column = target->schema().FindColumn(argv[3]);
  if (!column.has_value()) {
    std::fprintf(stderr, "error: no column '%s' in %s\n", argv[3], argv[2]);
    return 2;
  }

  std::printf("source: %zu rows x %zu columns; target column '%s' (%zu rows)\n",
              source->num_rows(), source->num_columns(), argv[3],
              target->num_rows());

  core::SqlEmitter::Options sql_options;
  sql_options.source_table = "t1";

  // Route the deadline (if any) through a budget we also hand to the SIGINT
  // handler, so Ctrl-C and --deadline-ms share the truncated-partial path.
  RunBudget budget(deadline);
  options.env.shared_budget = &budget;
  g_interrupt_budget = &budget;
  std::signal(SIGINT, HandleInterrupt);
  struct InterruptScope {
    ~InterruptScope() {
      std::signal(SIGINT, SIG_DFL);
      g_interrupt_budget = nullptr;  // budget dies with this scope
    }
  } interrupt_scope;

  auto print_explain = [&memory_sink] {
    if (memory_sink == nullptr) return;
    std::printf("\n%s", core::ExplainText(memory_sink->CanonicalEvents())
                            .c_str());
  };

  // --emit-program: compile the formula to VM bytecode, write the wire form
  // for `translate_csv --program`, and show the disassembly on stderr.
  auto emit_program = [&](const core::TranslationFormula& formula) -> Status {
    if (emit_program_path == nullptr) return Status::OK();
    auto program = vm::CompileFormula(formula, source->schema());
    if (!program.ok()) return program.status();
    const std::string wire = program->Serialize();
    std::FILE* f = std::fopen(emit_program_path, "wb");
    if (f == nullptr) {
      return Status::Internal(std::string("cannot write ") +
                              emit_program_path);
    }
    const size_t written = std::fwrite(wire.data(), 1, wire.size(), f);
    std::fclose(f);
    if (written != wire.size()) {
      return Status::Internal(std::string("short write to ") +
                              emit_program_path);
    }
    std::printf("program : %zu wire bytes -> %s\n", wire.size(),
                emit_program_path);
    std::fprintf(stderr, "%s", program->Disassemble().c_str());
    return Status::OK();
  };

  if (!all) {
    auto d = core::DiscoverTranslation(*source, *target, *column, options,
                                       sql_options);
    if (!d.ok()) return Fail(d.status());
    if (d->truncated()) {
      std::printf("TRUNCATED: %s budget exhausted; best partial result:\n",
                  BudgetTripName(d->search.budget_trip));
    }
    std::printf("formula : %s\n",
                d->formula().ToString(source->schema()).c_str());
    std::printf("coverage: %zu / %zu rows\n", d->coverage.matched_rows(),
                target->num_rows());
    if (d->sql_error.empty()) {
      std::printf("sql     : %s\n", d->sql.c_str());
    } else {
      std::printf("sql     : (not emitted: %s)\n", d->sql_error.c_str());
    }
    Status emitted = emit_program(d->formula());
    if (!emitted.ok()) return Fail(emitted);
    print_explain();
    return 0;
  }

  auto rounds = core::DiscoverAllTranslations(*source, *target, *column,
                                              options, 4, 5);
  if (!rounds.ok()) return Fail(rounds.status());
  std::vector<core::TranslationFormula> formulas;
  for (size_t i = 0; i < rounds->size(); ++i) {
    const auto& d = (*rounds)[i];
    std::printf("formula %zu: %-44s covers %zu rows%s\n", i + 1,
                d.formula().ToString(source->schema()).c_str(),
                d.coverage.matched_rows(),
                d.truncated() ? "  [TRUNCATED]" : "");
    if (d.sql_error.empty()) {
      std::printf("  sql: %s\n", d.sql.c_str());
    } else {
      std::printf("  sql: (not emitted: %s)\n", d.sql_error.c_str());
    }
    if (d.truncated()) continue;  // partial formula: not mergeable
    formulas.push_back(d.formula());
  }
  if (emit_program_path != nullptr) {
    if (formulas.empty()) {
      std::fprintf(stderr,
                   "error: --emit-program: no complete formula discovered\n");
      return 1;
    }
    Status emitted = emit_program(formulas.front());  // the dominant formula
    if (!emitted.ok()) return Fail(emitted);
  }
  if (formulas.size() > 1) {
    for (const auto& rule : core::MergeRules(formulas)) {
      auto coverage = rule.ComputeCoverage(*source, *target, *column);
      std::printf("merged rule: %-40s covers %zu rows\n",
                  rule.ToString(source->schema()).c_str(),
                  coverage.matched_rows());
    }
  }
  print_explain();
  return 0;
}

int main(int argc, const char** argv) {
  if (argc == 1) return RunDemo();
  return RealMain(argc, argv);
}
