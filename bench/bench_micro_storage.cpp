// Storage microbenchmark (DESIGN.md §13): the same rows ingested and scanned
// under the two encodings —
//   columnar       : arena-backed segments, fully resident,
//   columnar+paged : arena segments spilled through the byte-budgeted pager
//                    (budget far below the text payload).
// Measures ingest wall time, full-scan wall time (TextCursor over every text
// cell), and the resident-memory footprint from Table::Stats().
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/datasets.h"
#include "relational/column_store.h"
#include "relational/table.h"

using namespace mcsm;

namespace {

struct JsonSink {
  std::string path;

  void Row(const std::string& dataset, const char* encoding, size_t rows,
           double ingest_ms, double scan_ms, uint64_t resident_bytes,
           uint64_t spilled_bytes, uint64_t spilled_pages) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for append\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\"bench\": \"micro_storage\", \"dataset\": \"%s\", "
                 "\"encoding\": \"%s\", \"rows\": %zu, "
                 "\"ingest_ms\": %.3f, \"scan_ms\": %.3f, "
                 "\"resident_bytes\": %llu, \"spilled_bytes\": %llu, "
                 "\"spilled_pages\": %llu}\n",
                 dataset.c_str(), encoding, rows, ingest_ms, scan_ms,
                 static_cast<unsigned long long>(resident_bytes),
                 static_cast<unsigned long long>(spilled_bytes),
                 static_cast<unsigned long long>(spilled_pages));
    std::fclose(f);
  }
};

// Ingest: append every row of `rows` into a fresh table under `options`.
relational::Table Ingest(const relational::Table& src,
                         const relational::TableOptions& options,
                         double* wall_ms) {
  bench::Stopwatch timer;
  relational::Table t(src.schema(), options);
  for (size_t r = 0; r < src.num_rows(); ++r) {
    Status st = t.AppendRow(src.GetRow(r));
    if (!st.ok()) {
      std::fprintf(stderr, "append failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  *wall_ms = timer.Seconds() * 1000.0;
  return t;
}

// Scan: walk every text cell in column order through a TextCursor (the
// pattern every verification loop in the matcher uses) and checksum bytes
// so the work cannot be optimized away.
uint64_t Scan(const relational::Table& t, double* wall_ms) {
  bench::Stopwatch timer;
  uint64_t sum = 0;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const relational::ColumnView view = t.Column(c);
    if (view.type() != relational::ColumnType::kText) continue;
    relational::TextCursor cell(view);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::string_view v = cell.Get(r);
      sum += v.size();
      if (!v.empty()) sum += static_cast<unsigned char>(v.front());
    }
  }
  *wall_ms = timer.Seconds() * 1000.0;
  return sum;
}

struct Workload {
  std::string name;
  relational::Table table;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    // Text-heavy: 17 text columns of titles/authors/words.
    datagen::CitationOptions o;
    o.rows = 20000;
    out.push_back({"citation", datagen::MakeCitationDataset(o).source});
  }
  {
    datagen::UserIdOptions o;
    o.rows = 50000;
    out.push_back({"userid", datagen::MakeUserIdDataset(o).source});
  }
  {
    datagen::MergedNamesOptions o;
    o.rows = 50000;
    o.distinct_names = 4000;
    out.push_back({"mergednames", datagen::MakeMergedNamesDataset(o).source});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonSink json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json.path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json.path = argv[i] + 7;
    }
  }

  struct Backend {
    const char* name;
    relational::TableOptions options;
  };
  relational::TableOptions columnar;
  relational::TableOptions paged;
  paged.page_budget_bytes = 256 * 1024;  // far below every workload's text

  for (Workload& w : Workloads()) {
    uint64_t checksum = 0;
    for (const Backend& backend : {Backend{"columnar", columnar},
                                   Backend{"columnar+paged", paged}}) {
      double ingest_ms = 0, scan_ms = 0;
      relational::Table t = Ingest(w.table, backend.options, &ingest_ms);
      const uint64_t sum = Scan(t, &scan_ms);
      if (checksum == 0) {
        checksum = sum;
      } else if (sum != checksum) {
        std::fprintf(stderr, "scan checksum mismatch on %s/%s\n",
                     w.name.c_str(), backend.name);
        return 1;
      }
      relational::TableStats stats = t.Stats();
      std::printf(
          "%-12s %-15s rows=%-7llu ingest=%8.1fms scan=%7.1fms "
          "resident=%9llu spilled=%9llu (%llu pages)\n",
          w.name.c_str(), backend.name,
          static_cast<unsigned long long>(stats.rows), ingest_ms, scan_ms,
          static_cast<unsigned long long>(stats.resident_bytes),
          static_cast<unsigned long long>(stats.spilled_bytes),
          static_cast<unsigned long long>(stats.spilled_pages));
      json.Row(w.name, backend.name, t.num_rows(), ingest_ms, scan_ms,
               stats.resident_bytes, stats.spilled_bytes, stats.spilled_pages);
    }
  }
  return 0;
}
