#include "relational/column_index.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "relational/sampler.h"

namespace mcsm::relational {
namespace {

Table MakeTable(const std::vector<std::string>& values) {
  Table t = Table::WithTextColumns({"a"});
  for (const auto& v : values) EXPECT_TRUE(t.AppendTextRow({v}).ok());
  return t;
}

ColumnIndex::Options WithPostings() {
  ColumnIndex::Options o;
  o.build_postings = true;
  return o;
}

TEST(ColumnIndexTest, DistinctValuesSortedAndDeduplicated) {
  Table t = MakeTable({"pear", "apple", "pear", "fig"});
  ColumnIndex idx(t, 0, {});
  EXPECT_EQ(idx.distinct_count(), 3u);
  EXPECT_EQ(idx.sorted_distinct(),
            (std::vector<std::string>{"apple", "fig", "pear"}));
}

TEST(ColumnIndexTest, NullsIgnored) {
  Table t = Table::WithTextColumns({"a"});
  ASSERT_TRUE(t.AppendRow({Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::MakeNull()}).ok());
  ColumnIndex idx(t, 0, {});
  EXPECT_EQ(idx.distinct_count(), 1u);
  EXPECT_DOUBLE_EQ(idx.avg_length(), 1.0);
}

TEST(ColumnIndexTest, DocumentFrequencyCountsRows) {
  Table t = MakeTable({"banana", "bandana", "fig"});
  ColumnIndex idx(t, 0, {});
  EXPECT_EQ(idx.DocumentFrequency("an"), 2);  // once per row despite repeats
  EXPECT_EQ(idx.DocumentFrequency("fi"), 1);
  EXPECT_EQ(idx.DocumentFrequency("zz"), 0);
}

TEST(ColumnIndexTest, PostingsCarryTermFrequency) {
  Table t = MakeTable({"banana", "fig"});
  ColumnIndex idx(t, 0, WithPostings());
  const std::vector<ColumnIndex::Posting> plist = idx.DecodedPostings("an");
  ASSERT_EQ(plist.size(), 1u);
  EXPECT_EQ(plist[0].row, 0u);
  EXPECT_EQ(plist[0].tf, 2u);
  EXPECT_TRUE(idx.DecodedPostings("zz").empty());
}

TEST(ColumnIndexTest, TotalQGramHitsSumsDf) {
  Table t = MakeTable({"abx", "aby", "cd"});
  ColumnIndex idx(t, 0, {});
  // "ab" grams of key "ab": df(ab) = 2.
  EXPECT_EQ(idx.TotalQGramHits("ab"), 2);
  // key "abx": ab (2) + bx (1) = 3.
  EXPECT_EQ(idx.TotalQGramHits("abx"), 3);
  EXPECT_EQ(idx.TotalQGramHits("a"), 0);  // shorter than q
}

TEST(ColumnIndexTest, RowsWithAnyQGram) {
  Table t = MakeTable({"abx", "aby", "cd"});
  ColumnIndex idx(t, 0, WithPostings());
  EXPECT_EQ(idx.RowsWithAnyQGram("ab"), 2u);
  EXPECT_EQ(idx.RowsWithAnyQGram("cd"), 1u);
  EXPECT_EQ(idx.RowsWithAnyQGram("zz"), 0u);
}

TEST(ColumnIndexTest, FixedWidthDetection) {
  EXPECT_TRUE(ColumnIndex(MakeTable({"ab", "cd", "ef"}), 0, {}).fixed_width());
  EXPECT_FALSE(ColumnIndex(MakeTable({"ab", "abc"}), 0, {}).fixed_width());
  EXPECT_FALSE(ColumnIndex(MakeTable({}), 0, {}).fixed_width());
}

TEST(ColumnIndexTest, RowsMatchingPatternAgreesWithScan) {
  Rng rng(17);
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.RandomString(6, "abc"));
  Table t = MakeTable(values);
  ColumnIndex indexed(t, 0, WithPostings());
  ColumnIndex scanned(t, 0, {});  // no postings: falls back to scanning
  for (const char* like : {"%ab", "ab%", "%abc%", "a%c", "%zz%"}) {
    auto pattern = SearchPattern::FromLikeString(like);
    const PatternMatches a = indexed.RowsMatchingPattern(pattern);
    const PatternMatches b = scanned.RowsMatchingPattern(pattern);
    EXPECT_TRUE(std::is_sorted(a.rows().begin(), a.rows().end())) << like;
    EXPECT_EQ(a.rows(), b.rows()) << like;
    // Cross-check against direct evaluation: each match carries its row's
    // value and the capture of the pattern on it.
    for (const PatternMatches* m : {&a, &b}) {
      ASSERT_EQ(m->literals(),
                static_cast<size_t>(std::count_if(
                    pattern.segments().begin(), pattern.segments().end(),
                    [](const auto& seg) { return !seg.is_wildcard; })));
      for (size_t i = 0; i < m->size(); ++i) {
        const std::string& value = values[m->row(i)];
        EXPECT_EQ(m->text(i), value);
        EXPECT_EQ(m->pinned_text(i).view(), value);
        const auto spans = pattern.CaptureLiterals(value);
        ASSERT_TRUE(spans.has_value()) << value;
        EXPECT_EQ(std::vector<Span>(m->spans(i), m->spans(i) + m->literals()),
                  *spans);
      }
    }
  }
}

TEST(ColumnIndexTest, SimilarRowsRanksExactMatchFirst) {
  Table t = MakeTable({"rhwarner", "klwarder", "zzzzzz", "warner"});
  ColumnIndex idx(t, 0, WithPostings());
  auto rows = idx.SimilarRows("warner", 0.0, 10);
  ASSERT_GE(rows.size(), 2u);
  // "warner" and "rhwarner" both contain every gram of the key and tie for
  // the top score; both must precede the partial match.
  std::set<uint32_t> top = {rows[0].row, rows[1].row};
  EXPECT_TRUE(top.count(3u) == 1 && top.count(0u) == 1);
  EXPECT_DOUBLE_EQ(rows[0].score, rows[1].score);
  // The disjoint instance must not appear.
  for (const auto& r : rows) EXPECT_NE(r.row, 2u);
}

TEST(ColumnIndexTest, SimilarRowsHonorsTopR) {
  // Varied suffixes keep the shared grams informative (a gram occurring in
  // every instance has idf 0 and is rightly ignored).
  std::vector<std::string> values;
  for (int i = 0; i < 20; ++i) values.push_back("abc" + std::to_string(i));
  values.push_back("zzzz");
  Table t = MakeTable(values);
  ColumnIndex idx(t, 0, WithPostings());
  EXPECT_EQ(idx.SimilarRows("abc", 0.0, 5).size(), 5u);
}

TEST(ColumnIndexTest, SimilarRowsIgnoresUbiquitousGrams) {
  // Every instance identical: all grams have idf 0 and nothing is retrieved
  // — trivial overlap carries no linkage information.
  std::vector<std::string> values(20, "abcab");
  Table t = MakeTable(values);
  ColumnIndex idx(t, 0, WithPostings());
  EXPECT_TRUE(idx.SimilarRows("abc", 0.0, 5).empty());
}

TEST(ColumnIndexTest, SimilarRowsExcludesSeparatorGrams) {
  Table t = MakeTable({"11:45", "45:11", "xx:yy"});
  ColumnIndex idx(t, 0, WithPostings());
  // Excluding ':' drops the ":4"/"5:"-style grams; "45" still retrieves.
  auto rows = idx.SimilarRows("45", 0.0, 10, ":");
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) EXPECT_NE(r.row, 2u);
}

TEST(ColumnIndexTest, SimilarRowsByCountUsesRawCounts) {
  Table t = MakeTable({"abcd", "abxx", "zzzz"});
  ColumnIndex idx(t, 0, WithPostings());
  auto rows = idx.SimilarRowsByCount("abcd", 1.0, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].row, 0u);
  EXPECT_DOUBLE_EQ(rows[0].score, 3.0);  // ab, bc, cd
  EXPECT_DOUBLE_EQ(rows[1].score, 1.0);  // ab
}

// --- ColumnSummary -----------------------------------------------------------

// The summary of `col`, the summary part of its ColumnIndex, and a
// brute-force reference (a std::set of the text values and their lengths)
// must agree.
void ExpectSummaryOf(const Table& table, size_t col, const ColumnIndex& index,
                     const std::string& context) {
  const ColumnSummary summary(table, col);
  std::set<std::string> distinct;
  size_t non_null = 0;
  size_t total = 0;
  size_t min_len = 0;
  size_t max_len = 0;
  const ColumnView view = table.Column(col);
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!view.IsText(row)) continue;
    const std::string value(view.GetText(row).view());
    distinct.insert(value);
    min_len = non_null == 0 ? value.size() : std::min(min_len, value.size());
    max_len = std::max(max_len, value.size());
    total += value.size();
    ++non_null;
  }
  const std::vector<std::string> sorted(distinct.begin(), distinct.end());
  const double avg = non_null == 0 ? 0.0
                                   : static_cast<double>(total) /
                                         static_cast<double>(non_null);
  for (const ColumnSummary* s :
       {&summary, static_cast<const ColumnSummary*>(&index)}) {
    const std::string which =
        context + (s == &summary ? " (summary)" : " (index)");
    EXPECT_EQ(s->column(), col) << which;
    EXPECT_EQ(s->row_count(), table.num_rows()) << which;
    EXPECT_EQ(s->distinct_count(), sorted.size()) << which;
    EXPECT_EQ(s->sorted_distinct(), sorted) << which;
    EXPECT_EQ(s->avg_length(), avg) << which;
    EXPECT_EQ(s->min_length(), min_len) << which;
    EXPECT_EQ(s->max_length(), max_len) << which;
    EXPECT_EQ(s->fixed_width(), min_len == max_len && max_len > 0) << which;
  }
  EXPECT_LE(summary.ApproxMemoryBytes(), index.ApproxMemoryBytes()) << context;
}

TEST(ColumnSummaryTest, MatchesIndexOnEveryDatagenSourceColumn) {
  datagen::UserIdOptions userid;
  userid.rows = 400;
  userid.with_dates = true;
  datagen::TimeOptions time;
  time.rows = 300;
  datagen::MergedNamesOptions names;
  names.rows = 400;
  datagen::MergedNamesOptions comma = names;
  comma.comma_separator = true;
  datagen::CitationOptions citations;
  citations.rows = 300;
  datagen::CrossCitationOptions cross;
  cross.target_rows = 300;
  cross.source_rows = 200;
  cross.exact_overlap = 10;
  cross.swapped_overlap = 5;
  datagen::DateFormatOptions date;
  date.rows = 300;
  datagen::PartNumberOptions part;
  part.rows = 300;
  const std::vector<std::pair<std::string, datagen::Dataset>> families = {
      {"userid", datagen::MakeUserIdDataset(userid)},
      {"time", datagen::MakeTimeDataset(time)},
      {"names", datagen::MakeMergedNamesDataset(names)},
      {"comma_names", datagen::MakeMergedNamesDataset(comma)},
      {"citations", datagen::MakeCitationDataset(citations)},
      {"cross_citations", datagen::MakeCrossCitationDataset(cross)},
      {"date", datagen::MakeDateFormatDataset(date)},
      {"part", datagen::MakePartNumberDataset(part)},
  };
  for (const auto& [name, data] : families) {
    ASSERT_GT(data.source.num_columns(), 0u) << name;
    for (size_t col = 0; col < data.source.num_columns(); ++col) {
      ExpectSummaryOf(data.source, col, ColumnIndex(data.source, col, {}),
                      name + " column " + std::to_string(col));
    }
  }
}

TEST(ColumnSummaryTest, MatchesIndexOnEmptyAndNullColumns) {
  const Table empty = MakeTable({});
  ExpectSummaryOf(empty, 0, ColumnIndex(empty, 0, {}), "empty");
  EXPECT_EQ(ColumnSummary(empty, 0).distinct_count(), 0u);
  EXPECT_EQ(ColumnSummary(empty, 0).avg_length(), 0.0);

  Table all_null = Table::WithTextColumns({"a"});
  Table some_null = Table::WithTextColumns({"a"});
  for (const char* v : {"pear", "fig", "pear", "apple"}) {
    ASSERT_TRUE(all_null.AppendRow({Value::MakeNull()}).ok());
    ASSERT_TRUE(some_null.AppendRow({Value::MakeNull()}).ok());
    ASSERT_TRUE(some_null.AppendTextRow({v}).ok());
  }
  ExpectSummaryOf(all_null, 0, ColumnIndex(all_null, 0, {}), "all NULL");
  const ColumnSummary nulls(all_null, 0);
  EXPECT_EQ(nulls.row_count(), 4u);
  EXPECT_EQ(nulls.distinct_count(), 0u);
  EXPECT_FALSE(nulls.fixed_width());

  ExpectSummaryOf(some_null, 0, ColumnIndex(some_null, 0, WithPostings()),
                  "some NULL");
  const ColumnSummary some(some_null, 0);
  EXPECT_EQ(some.row_count(), 8u);
  EXPECT_EQ(some.sorted_distinct(),
            (std::vector<std::string>{"apple", "fig", "pear"}));
  EXPECT_DOUBLE_EQ(some.avg_length(), 4.0);  // (4 + 3 + 4 + 5) / 4
  EXPECT_EQ(some.min_length(), 3u);
  EXPECT_EQ(some.max_length(), 5u);
}

// --- PostingStore byte pins --------------------------------------------------
//
// The target index of five datagen families, pinned by FNV-1a over its
// PostingStore: the arena bytes, then every block meta in gram-id order. The
// hashes were recorded before the one-pass build replaced the sort-based one,
// so they hold the build to the same gram ids, df, posting lists and block
// boundaries (Intersect's budget tail depends on those).

uint64_t Fnv1a64(const void* bytes, size_t size, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t PostingStoreHash(const PostingStore& store) {
  uint64_t hash = Fnv1a64(store.data(), store.data_size(),
                          1469598103934665603ull);
  for (uint32_t id = 0; id < store.gram_count(); ++id) {
    auto [blk, end] = store.Blocks(id);
    for (; blk != end; ++blk) hash = Fnv1a64(blk, sizeof(*blk), hash);
  }
  return hash;
}

struct StorePin {
  const char* name;
  datagen::Dataset (*make)();
  size_t grams;
  size_t arena_bytes;
  uint64_t hash;
};

datagen::Dataset PinTime() {
  datagen::TimeOptions o;
  o.rows = 1500;
  o.seed = 2;
  return datagen::MakeTimeDataset(o);
}

datagen::Dataset PinPart() {
  datagen::PartNumberOptions o;
  o.rows = 800;
  o.seed = 3;
  return datagen::MakePartNumberDataset(o);
}

datagen::Dataset PinDate() {
  datagen::DateFormatOptions o;
  o.rows = 2000;
  o.seed = 2;
  return datagen::MakeDateFormatDataset(o);
}

datagen::Dataset PinCitations() {
  datagen::CitationOptions o;
  o.rows = 1000;
  return datagen::MakeCitationDataset(o);
}

datagen::Dataset PinNames() {
  datagen::MergedNamesOptions o;
  o.rows = 3000;
  return datagen::MakeMergedNamesDataset(o);
}

TEST(ColumnIndexPinTest, TargetPostingStoreBytes) {
  const StorePin pins[] = {
      {"time_1500_seed2", &PinTime, 84, 12316, 0x0f593237616cf101ull},
      {"part_800_seed3", &PinPart, 141, 14204, 0x277723cf36b5b0d3ull},
      {"date_2000_seed2", &PinDate, 114, 29993, 0x2babdae66e0c89b0ull},
      {"citations_1000", &PinCitations, 697, 122939, 0x583ab7ab0bb9e85full},
      {"names_3000", &PinNames, 384, 55189, 0x8b2add5fd14e3ec2ull},
  };
  for (const StorePin& pin : pins) {
    const datagen::Dataset data = pin.make();
    const ColumnIndex index(data.target, data.target_column, WithPostings());
    const PostingStore& store = index.postings();
    EXPECT_EQ(store.gram_count(), pin.grams) << pin.name;
    EXPECT_EQ(store.data_size(), pin.arena_bytes) << pin.name;
    EXPECT_EQ(PostingStoreHash(store), pin.hash) << pin.name;
  }
}

TEST(ColumnIndexTest, SampleDistinctValuesUsesSortedOrder) {
  Table t = MakeTable({"d", "b", "a", "c", "e", "f"});
  ColumnIndex idx(t, 0, {});
  auto sample = SampleDistinctValues(idx, 0.5, 1);
  ASSERT_EQ(sample.size(), 3u);
  EXPECT_EQ(sample[0], "a");  // equidistant over sorted distinct values
  EXPECT_EQ(sample[1], "c");
  EXPECT_EQ(sample[2], "e");
}

}  // namespace
}  // namespace mcsm::relational
