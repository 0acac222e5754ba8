// Storage-layer tests for the arena-backed columnar store (DESIGN.md §13):
// pager spill/cache behavior, segment-boundary round-trips, mutation
// (RemoveRows/Truncate/SetCell) property tests against a plain-vector
// reference model, view semantics, and the zero-column num_rows regression.
#include "relational/column_store.h"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "relational/pager.h"
#include "relational/table.h"
#include "relational/value.h"

namespace mcsm::relational {
namespace {

// Tiny segments so a few dozen short rows already cross several segment
// (and page) boundaries — every boundary case runs in milliseconds.
constexpr size_t kTinySegment = 64;

TableOptions Columnar(size_t segment_bytes = 0) {
  TableOptions o;
  o.segment_bytes = segment_bytes;
  return o;
}

TableOptions Paged(uint64_t budget, size_t segment_bytes = kTinySegment) {
  TableOptions o;
  o.page_budget_bytes = budget;
  o.segment_bytes = segment_bytes;
  return o;
}

// ---------------------------------------------------------------------------
// Pager unit tests.

TEST(PagerTest, WriteLoadRoundTrip) {
  auto pager = Pager::Create(1 << 20);
  ASSERT_TRUE(pager.ok()) << pager.status();
  const std::string a(100, 'a');
  const std::string b = "short";
  auto ida = (*pager)->Write(a.data(), a.size());
  auto idb = (*pager)->Write(b.data(), b.size());
  ASSERT_TRUE(ida.ok() && idb.ok());
  EXPECT_NE(*ida, *idb);
  auto pa = (*pager)->Load(*ida);
  auto pb = (*pager)->Load(*idb);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(std::string((*pa)->data(), (*pa)->size()), a);
  EXPECT_EQ(std::string((*pb)->data(), (*pb)->size()), b);
  EXPECT_EQ((*pager)->PageBytes(*ida), a.size());
}

TEST(PagerTest, ZeroBudgetCachesNothingButStillReads) {
  auto pager = Pager::Create(0);
  ASSERT_TRUE(pager.ok()) << pager.status();
  const std::string payload = "spilled straight to disk";
  auto id = (*pager)->Write(payload.data(), payload.size());
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE((*pager)->Resident(*id));
  for (int i = 0; i < 3; ++i) {
    auto pin = (*pager)->Load(*id);
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(std::string((*pin)->data(), (*pin)->size()), payload);
  }
  PagerStats stats = (*pager)->Stats();
  EXPECT_EQ(stats.resident_pages, 0u);
  EXPECT_GE(stats.cache_misses, 3u);
}

TEST(PagerTest, BudgetEvictsLruButPinsKeepBytesAlive) {
  // Budget of ~2 pages; writing 4 pages must evict the oldest.
  auto pager = Pager::Create(200);
  ASSERT_TRUE(pager.ok()) << pager.status();
  std::vector<uint32_t> ids;
  std::vector<std::string> payloads;
  for (int i = 0; i < 4; ++i) {
    payloads.emplace_back(90, static_cast<char>('a' + i));
    auto id = (*pager)->Write(payloads.back().data(), payloads.back().size());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  PagerStats stats = (*pager)->Stats();
  EXPECT_EQ(stats.spilled_pages, 4u);
  EXPECT_LE(stats.resident_bytes, 200u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_FALSE((*pager)->Resident(ids[0]));  // oldest got evicted

  // A pin taken before eviction keeps its bytes valid while the cache churns.
  auto pinned = (*pager)->Load(ids[0]);
  ASSERT_TRUE(pinned.ok());
  std::string_view held((*pinned)->data(), (*pinned)->size());
  for (int round = 0; round < 3; ++round) {
    for (uint32_t id : ids) ASSERT_TRUE((*pager)->Load(id).ok());
  }
  EXPECT_EQ(held, payloads[0]);
  EXPECT_TRUE((*pager)->first_error().ok());
}

TEST(PagerSourceTest, LazyCreationAndSharing) {
  PagerSource source(1 << 16);
  EXPECT_EQ(source.TryGet(), nullptr);  // no spill file until first use
  auto pager = source.GetOrCreate();
  ASSERT_NE(pager, nullptr);
  EXPECT_EQ(source.GetOrCreate(), pager);  // one pager per source
  EXPECT_TRUE(source.status().ok());
}

// ---------------------------------------------------------------------------
// Segment-boundary round-trips.

TEST(ColumnStoreTest, AppendRoundTripAcrossSegmentBoundaries) {
  Table t = Table::WithTextColumns({"a"}, Columnar(kTinySegment));
  std::vector<std::string> expected;
  Rng rng(7);
  for (size_t i = 0; i < 300; ++i) {
    // Mix of short values, empty strings and values larger than a whole
    // segment (which must get a segment of their own).
    size_t len = rng.Bernoulli(0.05) ? kTinySegment * 2 + rng.Uniform(40)
                                     : rng.Uniform(20);
    expected.push_back(rng.RandomString(len, "abcdefgh"));
    ASSERT_TRUE(t.AppendTextRow({expected.back()}).ok());
  }
  ASSERT_EQ(t.num_rows(), expected.size());
  TableStats stats = t.Stats();
  EXPECT_GT(stats.resident_pages, 2u);  // really crossed segment boundaries
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(t.TextAt(r, 0).view(), expected[r]) << "row " << r;
  }
}

TEST(ColumnStoreTest, PagedAppendSpillsAndReadsBack) {
  // Budget far below the payload: most sealed segments must live on disk.
  Table t = Table::WithTextColumns({"a"}, Paged(/*budget=*/128));
  std::vector<std::string> expected;
  Rng rng(11);
  for (size_t i = 0; i < 400; ++i) {
    expected.push_back(rng.RandomString(8 + rng.Uniform(12), "pqrstuvw"));
    ASSERT_TRUE(t.AppendTextRow({expected.back()}).ok());
  }
  TableStats stats = t.Stats();
  EXPECT_EQ(stats.encoding, "columnar+paged");
  EXPECT_GT(stats.spilled_pages, 0u) << "budget never forced a spill";
  EXPECT_GT(stats.spilled_bytes, 0u);
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(t.TextAt(r, 0).view(), expected[r]) << "row " << r;
  }
  EXPECT_TRUE(t.storage_status().ok());
}

TEST(ColumnStoreTest, EncodingNames) {
  EXPECT_EQ(Table::WithTextColumns({"a"}, Columnar()).Stats().encoding,
            "columnar");
  EXPECT_EQ(Table::WithTextColumns({"a"}, Paged(1024)).Stats().encoding,
            "columnar+paged");
}

// ---------------------------------------------------------------------------
// Mutation property tests against a reference model.

// Reference model: plain vector of optional-free strings ("" = NULL is not
// distinguished here because these columns never insert NULLs).
struct Model {
  std::vector<std::string> rows;
};

void CheckAgainstModel(const Table& t, const Model& m) {
  ASSERT_EQ(t.num_rows(), m.rows.size());
  for (size_t r = 0; r < m.rows.size(); ++r) {
    EXPECT_EQ(t.TextAt(r, 0).view(), m.rows[r]) << "row " << r;
  }
}

class MutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationProperty, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam());
  // Unpaged and paged stores driven by the same op sequence must agree with
  // the model (and therefore with each other) after every step.
  std::vector<Table> tables;
  tables.push_back(Table::WithTextColumns({"a"}, Columnar(kTinySegment)));
  tables.push_back(Table::WithTextColumns({"a"}, Paged(/*budget=*/256)));
  Model model;

  for (int step = 0; step < 120; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.55 || model.rows.empty()) {
      std::string v = rng.RandomString(rng.Uniform(24), "abcdefghij");
      model.rows.push_back(v);
      for (Table& t : tables) ASSERT_TRUE(t.AppendTextRow({v}).ok());
    } else if (dice < 0.75) {
      size_t row = rng.Uniform(model.rows.size());
      std::string v = rng.RandomString(rng.Uniform(30), "klmnopqr");
      model.rows[row] = v;
      for (Table& t : tables) {
        ASSERT_TRUE(t.SetCell(row, 0, Value(v)).ok());
      }
    } else if (dice < 0.9) {
      // Remove a random subset (possibly with duplicates/out-of-range).
      std::vector<size_t> doomed;
      size_t count = 1 + rng.Uniform(4);
      for (size_t i = 0; i < count; ++i) {
        doomed.push_back(rng.Uniform(model.rows.size() + 2));  // may be OOR
      }
      std::vector<size_t> unique = doomed;
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      for (auto it = unique.rbegin(); it != unique.rend(); ++it) {
        if (*it < model.rows.size()) {
          model.rows.erase(model.rows.begin() + static_cast<long>(*it));
        }
      }
      for (Table& t : tables) ASSERT_TRUE(t.RemoveRows(doomed).ok());
    } else {
      size_t n = rng.Uniform(model.rows.size() + 1);
      model.rows.resize(std::min(model.rows.size(), n));
      for (Table& t : tables) t.Truncate(n);
    }
    for (Table& t : tables) CheckAgainstModel(t, model);
  }
  // The paged run must actually have paged (the budget is far below the
  // churn) and stayed healthy.
  EXPECT_TRUE(tables[1].storage_status().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ColumnStoreTest, RemoveRowsReclaimsAbandonedBytes) {
  Table t = Table::WithTextColumns({"a"}, Columnar(kTinySegment));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendTextRow({std::string(16, 'x')}).ok());
  }
  const uint64_t before = t.Stats().resident_bytes;
  std::vector<size_t> doomed;
  for (size_t r = 0; r < 180; ++r) doomed.push_back(r);
  ASSERT_TRUE(t.RemoveRows(doomed).ok());
  ASSERT_EQ(t.num_rows(), 20u);
  // Compaction rebuilt the segments: the survivors' payload is a fraction
  // of the original arena.
  EXPECT_LT(t.Stats().resident_bytes, before / 2);
  for (size_t r = 0; r < 20; ++r) {
    EXPECT_EQ(t.TextAt(r, 0).view(), std::string(16, 'x'));
  }
}

// ---------------------------------------------------------------------------
// View API semantics.

TEST(ColumnViewTest, CursorAndPinnedColumnAgreeWithPointLookups) {
  Table t = Table::WithTextColumns({"a"}, Paged(/*budget=*/128));
  Rng rng(23);
  std::vector<std::string> expected;
  for (size_t i = 0; i < 250; ++i) {
    expected.push_back(rng.RandomString(6 + rng.Uniform(10), "abcdef"));
    ASSERT_TRUE(t.AppendTextRow({expected.back()}).ok());
  }
  const ColumnView view = t.Column(0);
  TextCursor cursor(view);
  const PinnedColumn pinned(view);
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(cursor.Get(r), expected[r]);
    EXPECT_EQ(pinned.at(r), expected[r]);
    EXPECT_EQ(t.TextAt(r, 0).view(), expected[r]);
  }
  // PinnedColumn views are all simultaneously valid.
  std::vector<std::string_view> held;
  for (size_t r = 0; r < expected.size(); ++r) held.push_back(pinned.at(r));
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(held[r], expected[r]);
  }
}

TEST(ColumnViewTest, GetTextsBatchMatchesPointLookups) {
  Table t = Table::WithTextColumns({"a"}, Columnar(kTinySegment));
  std::vector<std::string> expected;
  for (size_t i = 0; i < 120; ++i) {
    expected.push_back("v" + std::to_string(i * i));
    ASSERT_TRUE(t.AppendTextRow({expected.back()}).ok());
  }
  std::vector<uint32_t> rows = {0, 5, 5, 119, 64, 1};
  std::vector<TextView> out;
  t.Column(0).GetTexts(rows.data(), rows.size(), &out);
  ASSERT_EQ(out.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i].view(), expected[rows[i]]);
  }
}

TEST(ColumnViewTest, NullAndNumericSemantics) {
  for (const TableOptions& opts : {Columnar(kTinySegment), Paged(1024)}) {
    Table t{Schema({{"s", ColumnType::kText},
                    {"n", ColumnType::kInteger},
                    {"r", ColumnType::kReal}}),
            opts};
    ASSERT_TRUE(
        t.AppendRow({Value("x"), Value(int64_t{7}), Value(1.5)}).ok());
    ASSERT_TRUE(t.AppendRow({Value::MakeNull(), Value::MakeNull(),
                             Value::MakeNull()}).ok());
    EXPECT_TRUE(t.Column(0).IsText(0));
    EXPECT_FALSE(t.Column(0).IsText(1));   // NULL is not text
    EXPECT_FALSE(t.Column(1).IsText(0));   // INTEGER is not text
    EXPECT_EQ(t.Column(1).GetInt(0), 7);
    EXPECT_EQ(t.Column(2).GetReal(0), 1.5);
    EXPECT_TRUE(t.IsNull(1, 0));
    EXPECT_EQ(t.TextAt(1, 0).view(), "");       // NULL -> empty view
    EXPECT_EQ(t.TextAt(0, 1).view(), "");       // non-text -> empty view
    EXPECT_TRUE(t.ValueAt(1, 2).is_null());
    EXPECT_EQ(t.ValueAt(0, 1), Value(int64_t{7}));
    const uint32_t rows[] = {0, 1};
    std::vector<TextView> texts;
    t.Column(1).GetTexts(rows, 2, &texts);  // non-text -> empty views
    ASSERT_EQ(texts.size(), 2u);
    EXPECT_TRUE(texts[0].empty() && texts[1].empty());
  }
}

// ---------------------------------------------------------------------------
// Regressions.

TEST(TableTest, ZeroColumnSchemaCountsRows) {
  // Regression: num_rows() used to derive from column 0 and reported 0
  // for zero-column schemas no matter how many rows were appended.
  for (const TableOptions& opts : {Columnar(), Paged(1024)}) {
    Table t{Schema(std::vector<ColumnDef>{}), opts};
    EXPECT_EQ(t.num_rows(), 0u);
    ASSERT_TRUE(t.AppendRow({}).ok());
    ASSERT_TRUE(t.AppendRow({}).ok());
    EXPECT_EQ(t.num_rows(), 2u);
    t.Truncate(1);
    EXPECT_EQ(t.num_rows(), 1u);
    ASSERT_TRUE(t.RemoveRows({0}).ok());
    EXPECT_EQ(t.num_rows(), 0u);
  }
}

TEST(TableTest, CopiedTablesShareSegmentsAndDivergeIndependently) {
  Table a = Table::WithTextColumns({"a"}, Paged(/*budget=*/128));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.AppendTextRow({"row" + std::to_string(i)}).ok());
  }
  Table b = a;  // shares sealed segments + the spill file
  ASSERT_TRUE(a.AppendTextRow({"only-in-a"}).ok());
  ASSERT_TRUE(b.RemoveRows({0}).ok());
  EXPECT_EQ(a.num_rows(), 101u);
  EXPECT_EQ(b.num_rows(), 99u);
  EXPECT_EQ(a.TextAt(100, 0).view(), "only-in-a");
  EXPECT_EQ(a.TextAt(0, 0).view(), "row0");
  EXPECT_EQ(b.TextAt(0, 0).view(), "row1");
}

// ---------------------------------------------------------------------------
// Failpoint chaos for the pager sites.

class PagerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::ReloadFromEnv(); }
  void TearDown() override { failpoint::ReloadFromEnv(); }
};

TEST_F(PagerChaosTest, WriteFaultFailsIngestLoudly) {
  ASSERT_TRUE(failpoint::Arm(failpoint::kPagerWrite, "error:injected").ok());
  Table t = Table::WithTextColumns({"a"}, Paged(/*budget=*/128));
  Status failure = Status::OK();
  for (int i = 0; i < 200 && failure.ok(); ++i) {
    failure = t.AppendTextRow({std::string(16, 'y')});
  }
  // The first spill attempt must surface the injected error to the caller.
  EXPECT_TRUE(failure.IsInternal()) << failure.ToString();
}

TEST_F(PagerChaosTest, ReadFaultDegradesToEmptyViewsAndLatches) {
  // A 1-byte budget: paging is on (0 would mean "unpaged") but nothing
  // stays cached, so every sealed-segment read faults to disk.
  Table t = Table::WithTextColumns({"a"}, Paged(/*budget=*/1));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendTextRow({std::string(16, 'z')}).ok());
  }
  ASSERT_GT(t.Stats().spilled_pages, 0u);
  ASSERT_TRUE(failpoint::Arm(failpoint::kPagerRead, "error:injected").ok());
  // Reads never crash: spilled rows degrade to empty views...
  size_t empty = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.TextAt(r, 0).view().empty()) ++empty;
  }
  EXPECT_GT(empty, 0u);
  // ...and the failure stays observable after the fact.
  EXPECT_FALSE(t.storage_status().ok());
  failpoint::DisarmAll();
  // With the fault gone, the data is still intact on disk.
  EXPECT_EQ(t.TextAt(0, 0).view(), std::string(16, 'z'));
}

}  // namespace
}  // namespace mcsm::relational
