// Bulk-translation throughput: the same discovered formula executed two
// ways over the full source table —
//   apply : TranslationFormula::Apply in a per-row loop (one std::string
//           allocation per covered row),
//   vm    : the compiled bytecode program through vm::Translate
//           (DESIGN.md §12; zero per-row allocation, batch-parallel).
// Both produce byte-identical covered rows (vm_test enforces it); this bench
// measures what that agreement costs. --json rows carry path and rows/sec
// so CI can track the speedup ratio. BENCH_pr9.json keeps the record of the
// row-at-a-time SQL interpreter this VM replaced (vm 10-42x faster).
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "vm/compiler.h"
#include "vm/executor.h"

using namespace mcsm;

namespace {

struct JsonSink {
  std::string path;

  void Row(const std::string& dataset, const char* exec_path, size_t rows,
           size_t covered, double wall_ms, size_t threads) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for append\n", path.c_str());
      return;
    }
    const double rows_per_sec =
        wall_ms > 0 ? 1000.0 * static_cast<double>(rows) / wall_ms : 0;
    std::fprintf(f,
                 "{\"bench\": \"translate\", \"dataset\": \"%s\", "
                 "\"path\": \"%s\", \"rows\": %zu, \"covered\": %zu, "
                 "\"wall_ms\": %.3f, \"rows_per_sec\": %.0f, "
                 "\"threads\": %zu}\n",
                 dataset.c_str(), exec_path, rows, covered, wall_ms,
                 rows_per_sec, threads);
    std::fclose(f);
  }
};

void RunDataset(const std::string& name, const datagen::Dataset& data,
                core::SearchOptions search_options, size_t threads,
                const JsonSink& json) {
  bench::Banner("translate", name.c_str());
  const size_t rows = data.source.num_rows();

  bench::Stopwatch watch;
  search_options.num_threads = threads;
  auto d = core::DiscoverTranslation(data.source, data.target,
                                     data.target_column, search_options);
  if (!d.ok()) {
    std::printf("discovery failed: %s\n", d.status().ToString().c_str());
    return;
  }
  std::printf("formula    : %s  (discovered in %.2f s)\n",
              d->formula().ToString(data.source.schema()).c_str(),
              watch.Seconds());

  // Apply path: the discovery-time per-row oracle.
  watch.Reset();
  size_t apply_covered = 0;
  size_t apply_bytes = 0;
  for (size_t row = 0; row < rows; ++row) {
    if (auto value = d->formula().Apply(data.source, row)) {
      ++apply_covered;
      apply_bytes += value->size();
    }
  }
  const double apply_ms = watch.Seconds() * 1000;
  std::printf("apply      : %8.1f ms  %12.0f rows/sec  (%zu covered)\n",
              apply_ms, 1000.0 * static_cast<double>(rows) / apply_ms,
              apply_covered);
  json.Row(name, "apply", rows, apply_covered, apply_ms, 1);

  // VM path at the requested thread count.
  auto program = vm::CompileFormula(d->formula(), data.source.schema());
  if (!program.ok()) {
    std::printf("compile failed: %s\n", program.status().ToString().c_str());
    return;
  }
  vm::TranslateOptions translate_options;
  translate_options.num_threads = threads;
  watch.Reset();
  auto result = vm::Translate(*program, data.source, translate_options);
  const double vm_ms = watch.Seconds() * 1000;
  if (!result.ok()) {
    std::printf("vm exec failed: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("vm         : %8.1f ms  %12.0f rows/sec  (%zu covered, "
              "%zu threads)\n",
              vm_ms, 1000.0 * static_cast<double>(rows) / vm_ms,
              result->output_rows(), threads);
  json.Row(name, "vm", rows, result->output_rows(), vm_ms, threads);

  // The two paths must agree before any speedup claim means anything.
  if (result->output_rows() != apply_covered ||
      result->bytes.size() != apply_bytes) {
    std::printf("!! DISAGREEMENT: apply %zu, vm %zu covered rows\n",
                apply_covered, result->output_rows());
    std::exit(1);
  }
  std::printf("speedup    : vm is %.1fx apply\n", apply_ms / vm_ms);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchCli cli(argc, argv, "translate");
  JsonSink json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json.path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json.path = argv[i] + 7;
    }
  }
  const size_t threads = cli.threads();

  {
    datagen::UserIdOptions o;
    o.rows = bench::ScaledRows(6000, 1.0);
    RunDataset("userid", datagen::MakeUserIdDataset(o), {}, threads, json);
  }
  {
    datagen::MergedNamesOptions o;
    o.rows = bench::ScaledRows(700000, 0.5);
    o.distinct_names = o.rows / 10;
    RunDataset("fullname", datagen::MakeMergedNamesDataset(o), {}, threads,
               json);
  }
  {
    datagen::CitationOptions o;
    o.rows = bench::ScaledRows(526000, 0.2);
    core::SearchOptions so;
    so.sample_fraction = 0.02;
    RunDataset("citeseer", datagen::MakeCitationDataset(o), so, threads,
               json);
  }
  return 0;
}
