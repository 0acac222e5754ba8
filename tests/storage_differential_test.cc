// Storage-backend differentials: the determinism contract (DESIGN.md §8/§13)
// extends over the storage engine — discovery must produce byte-identical
// results AND byte-identical trace multisets whether the tables live in the
// columnar arena store or the paged store under a budget that forces
// spilling, at every thread count. Also: any chunking of
// the same CSV bytes must parse to a byte-identical table and report.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/trace.h"
#include "core/matcher.h"
#include "datagen/datasets.h"
#include "relational/csv.h"
#include "relational/table.h"

namespace mcsm {
namespace {

using relational::Table;
using relational::TableOptions;

// Rebuilds `src` row by row under a different storage backend. Datagen
// builds tables under the env default; the differentials need the same
// bytes under every backend.
Table Rebuild(const Table& src, const TableOptions& options) {
  Table t(src.schema(), options);
  for (size_t r = 0; r < src.num_rows(); ++r) {
    EXPECT_TRUE(t.AppendRow(src.GetRow(r)).ok());
  }
  return t;
}

TableOptions ColumnarOpts() { return TableOptions{}; }

TableOptions PagedOpts() {
  TableOptions o;
  // Small budget + small segments: even the modest test datasets spill.
  o.page_budget_bytes = 4 * 1024;
  o.segment_bytes = 1024;
  return o;
}

// Serializes everything the discovery run decided — formulas, coverage row
// pairs, SQL, truncation — into one comparable string. Two runs are
// "byte-identical" iff these strings match.
std::string Fingerprint(const std::vector<core::DiscoveredTranslation>& all,
                        const relational::Schema& schema) {
  std::ostringstream out;
  out << all.size() << " formulas\n";
  for (const auto& d : all) {
    out << d.formula().ToString(schema) << "|" << d.sql << "|"
        << d.truncated() << "|" << d.coverage.matched_rows() << "|";
    for (const auto& m : d.coverage.matches) {
      out << m.source_row << ":" << m.target_row << ",";
    }
    out << "\n";
  }
  return out.str();
}

std::vector<std::string> SortedIds(const std::vector<TraceEvent>& events) {
  std::vector<std::string> ids;
  ids.reserve(events.size());
  for (const TraceEvent& event : events) ids.push_back(event.Id());
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct RunOutput {
  std::string fingerprint;
  std::vector<std::string> trace_ids;
};

RunOutput RunDiscovery(const datagen::Dataset& data,
                       const TableOptions& storage, size_t threads) {
  InMemoryTraceSink sink;
  core::SearchOptions options;
  options.sample_fraction = 0.10;
  options.num_threads = threads;
  options.env.trace = &sink;
  Table source = Rebuild(data.source, storage);
  Table target = Rebuild(data.target, storage);
  auto all = core::DiscoverAllTranslations(std::move(source),
                                           std::move(target),
                                           data.target_column, options);
  RunOutput out;
  if (!all.ok()) {
    out.fingerprint = "error: " + all.status().ToString();
  } else {
    out.fingerprint = Fingerprint(*all, data.source.schema());
  }
  out.trace_ids = SortedIds(sink.Events());
  return out;
}

struct Family {
  const char* name;
  datagen::Dataset data;
};

std::vector<Family> TestFamilies() {
  std::vector<Family> families;
  {
    datagen::UserIdOptions o;
    o.rows = 300;
    families.push_back({"userid", datagen::MakeUserIdDataset(o)});
  }
  {
    datagen::TimeOptions o;
    o.rows = 250;
    families.push_back({"time", datagen::MakeTimeDataset(o)});
  }
  {
    datagen::DateFormatOptions o;
    o.rows = 250;
    families.push_back({"dateformat", datagen::MakeDateFormatDataset(o)});
  }
  {
    datagen::MergedNamesOptions o;
    o.rows = 250;
    o.distinct_names = 60;
    families.push_back({"mergednames", datagen::MakeMergedNamesDataset(o)});
  }
  return families;
}

TEST(StorageDifferentialTest, DiscoveryIdenticalAcrossBackendsAndThreads) {
  for (const Family& family : TestFamilies()) {
    SCOPED_TRACE(family.name);
    // Baseline: unpaged columnar store, single thread.
    RunOutput baseline = RunDiscovery(family.data, ColumnarOpts(), 1);
    ASSERT_FALSE(baseline.trace_ids.empty());
    for (const TableOptions& storage : {ColumnarOpts(), PagedOpts()}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE(testing::Message()
                     << "encoding="
                     << Rebuild(family.data.source, storage).Stats().encoding
                     << " threads=" << threads);
        RunOutput run = RunDiscovery(family.data, storage, threads);
        EXPECT_EQ(run.fingerprint, baseline.fingerprint);
        EXPECT_EQ(run.trace_ids, baseline.trace_ids);
      }
    }
  }
}

TEST(StorageDifferentialTest, CiteseerCompletesUnderTightPageBudget) {
  // The paper's citation workload with the spill budget far below the
  // text payload: discovery must complete and match the in-memory run.
  datagen::CitationOptions o;
  o.rows = 300;
  datagen::Dataset data = datagen::MakeCitationDataset(o);

  RunOutput in_memory = RunDiscovery(data, ColumnarOpts(), 2);
  TableOptions tight = PagedOpts();
  tight.page_budget_bytes = 2 * 1024;
  Table paged_source = Rebuild(data.source, tight);
  ASSERT_EQ(paged_source.Stats().encoding, "columnar+paged");
  EXPECT_GT(paged_source.Stats().spilled_bytes,
            tight.page_budget_bytes)
      << "dataset too small to exercise spilling";
  RunOutput paged = RunDiscovery(data, tight, 2);
  EXPECT_EQ(paged.fingerprint, in_memory.fingerprint);
  EXPECT_EQ(paged.trace_ids, in_memory.trace_ids);
}

// ---------------------------------------------------------------------------
// CSV chunking differential.

std::string TableBytes(const Table& t) {
  return relational::WriteCsv(t);
}

std::string ReportBytes(const relational::CsvReadReport& r) {
  std::ostringstream out;
  out << r.rows_kept << "/" << r.rows_dropped;
  for (const auto& e : r.first_errors) out << "|" << e;
  return out.str();
}

TEST(CsvChunkingDifferentialTest, AnyChunkingParsesIdentically) {
  // A dirty permissive-mode file with quoted fields, embedded newlines and
  // malformed records — the cases a chunk boundary could split.
  std::string csv =
      "name,bio\n"
      "ann,\"line one\nline two\"\n"
      "bob,plain\n"
      "broken,\"unclosed\nmore,stuff\"\n"
      "carol,\"has \"\"quotes\"\" inside\"\n"
      "dave,\n"
      "wrongcount,a,b,c\n"
      "erin,last\n";

  relational::CsvOptions options;
  options.permissive = true;

  relational::CsvReadReport whole_report;
  auto whole = relational::ReadCsv(csv, options, &whole_report);
  ASSERT_TRUE(whole.ok()) << whole.status();
  const std::string want_table = TableBytes(*whole);
  const std::string want_report = ReportBytes(whole_report);

  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    relational::CsvReadReport report;
    relational::CsvStreamParser parser(options, &report);
    size_t pos = 0;
    while (pos < csv.size()) {
      size_t len = 1 + rng.Uniform(7);  // tiny chunks hit every boundary
      len = std::min(len, csv.size() - pos);
      ASSERT_TRUE(parser.Feed(std::string_view(csv).substr(pos, len)).ok());
      pos += len;
    }
    auto chunked = parser.Finish();
    ASSERT_TRUE(chunked.ok()) << chunked.status();
    EXPECT_EQ(TableBytes(*chunked), want_table);
    EXPECT_EQ(ReportBytes(report), want_report);
  }
}

TEST(CsvChunkingDifferentialTest, PagedIngestMatchesUnpaged) {
  // Streaming a larger generated CSV into a paged table yields the same
  // bytes as the unpaged parse.
  datagen::UserIdOptions o;
  o.rows = 500;
  datagen::Dataset data = datagen::MakeUserIdDataset(o);
  const std::string csv = relational::WriteCsv(data.source);

  relational::CsvOptions options;
  auto unpaged = relational::ReadCsv(csv, options, nullptr);
  ASSERT_TRUE(unpaged.ok());

  relational::CsvStreamParser parser(options, nullptr, PagedOpts());
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t len = std::min<size_t>(4096, csv.size() - pos);
    ASSERT_TRUE(parser.Feed(std::string_view(csv).substr(pos, len)).ok());
    pos += len;
  }
  auto paged = parser.Finish();
  ASSERT_TRUE(paged.ok()) << paged.status();
  EXPECT_EQ(paged->Stats().encoding, "columnar+paged");
  EXPECT_GT(paged->Stats().spilled_pages, 0u);
  EXPECT_EQ(TableBytes(*paged), TableBytes(*unpaged));
}

}  // namespace
}  // namespace mcsm
