#include "core/matcher.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "relational/table.h"

namespace mcsm::core {
namespace {

SearchOptions FastOptions() {
  SearchOptions o;
  o.sample_fraction = 0.10;
  return o;
}

TEST(DiscoverAllTest, MaxFormulasCapsRounds) {
  datagen::UserIdOptions o;
  o.rows = 2000;
  auto data = datagen::MakeUserIdDataset(o);
  // The dataset supports two dominant formulas; a cap of 1 stops after one.
  auto all = DiscoverAllTranslations(data.source, data.target, 0,
                                     FastOptions(), /*max_formulas=*/1,
                                     /*min_matched_rows=*/2);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), 1u);
  EXPECT_FALSE(all->front().truncated());
}

TEST(DiscoverAllTest, MinMatchedRowsStopsCleanly) {
  datagen::UserIdOptions o;
  o.rows = 1000;
  auto data = datagen::MakeUserIdDataset(o);
  // No formula can cover more rows than the table holds: the first round's
  // coverage misses the floor and the loop returns cleanly with no results.
  auto all = DiscoverAllTranslations(data.source, data.target, 0,
                                     FastOptions(), 4,
                                     /*min_matched_rows=*/100000);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_TRUE(all->empty());
}

TEST(DiscoverAllTest, FullCoverageEmptiesTablesAndStops) {
  datagen::TimeOptions o;
  o.rows = 1500;
  auto data = datagen::MakeTimeDataset(o);
  // hrs||mins||secs covers every target row; after removal the target table
  // is empty and the loop must stop without a second (failing) search.
  auto all = DiscoverAllTranslations(data.source, data.target, 0,
                                     FastOptions(), 4, /*min_matched_rows=*/2);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_GE(all->size(), 1u);
  EXPECT_EQ(all->front().coverage.matched_rows(), data.target.num_rows());
}

TEST(DiscoverAllTest, FirstRoundOutOfRangePropagates) {
  datagen::UserIdOptions o;
  o.rows = 200;
  auto data = datagen::MakeUserIdDataset(o);
  auto all = DiscoverAllTranslations(data.source, data.target,
                                     data.target.num_columns() + 5,
                                     FastOptions());
  EXPECT_TRUE(all.status().IsOutOfRange());
}

TEST(DiscoverAllTest, FirstRoundNotFoundPropagates) {
  // Disjoint alphabets: no source column shares a q-gram with the target, so
  // even the FIRST round finds nothing. That is a real error for the caller
  // (their input can never produce a translation), not a clean empty result.
  auto source = relational::Table::WithTextColumns({"a"});
  auto target = relational::Table::WithTextColumns({"b"});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(source
                    .AppendRow({relational::Value(std::string("abcdef") +
                                                  static_cast<char>('a' + i))})
                    .ok());
    ASSERT_TRUE(target
                    .AppendRow({relational::Value(std::string("012345") +
                                                  static_cast<char>('0' + i % 10))})
                    .ok());
  }
  auto all = DiscoverAllTranslations(source, target, 0, FastOptions());
  EXPECT_TRUE(all.status().IsNotFound()) << all.status().ToString();
}

TEST(DiscoverTranslationTest, TinyWorkBudgetReturnsTruncated) {
  datagen::UserIdOptions o;
  o.rows = 2000;
  auto data = datagen::MakeUserIdDataset(o);
  SearchOptions options = FastOptions();
  options.env.budget.max_pairs_aligned = 1;  // trips on the second alignment
  auto d = DiscoverTranslation(data.source, data.target, 0, options);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->truncated());
  EXPECT_EQ(d->search.budget_trip, BudgetTrip::kPairs);
}

TEST(DiscoverTranslationTest, TinyFormulaBudgetReturnsTruncated) {
  datagen::UserIdOptions o;
  o.rows = 2000;
  auto data = datagen::MakeUserIdDataset(o);
  SearchOptions options = FastOptions();
  options.env.budget.max_candidate_formulas = 2;
  auto d = DiscoverTranslation(data.source, data.target, 0, options);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->truncated());
  EXPECT_EQ(d->search.budget_trip, BudgetTrip::kFormulas);
}

TEST(DiscoverAllTest, TruncatedRoundIsSurfacedAndStopsTheLoop) {
  datagen::UserIdOptions o;
  o.rows = 2000;
  auto data = datagen::MakeUserIdDataset(o);
  SearchOptions options = FastOptions();
  options.env.budget.max_pairs_aligned = 1;
  auto all = DiscoverAllTranslations(data.source, data.target, 0, options);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 1u);
  EXPECT_TRUE(all->front().truncated());
}

// Acceptance criterion: a 50 ms deadline on a CiteSeer-style dataset returns
// a truncated partial result — not an error, not an abort, not an unbounded
// run. The deadline clock starts at search construction, so indexing the
// long citation strings alone exhausts it.
TEST(DiscoverTranslationTest, CitationDeadline50msTruncates) {
  datagen::CitationOptions o;
  o.rows = 30000;
  auto data = datagen::MakeCitationDataset(o);
  SearchOptions options = FastOptions();
  options.env.budget.wall_ms = 50;
  auto d = DiscoverTranslation(data.source, data.target, data.target_column,
                               options);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->truncated());
  EXPECT_EQ(d->search.budget_trip, BudgetTrip::kWallClock);
}

// Run()'s coverage validation already computes the returned formula's
// coverage, and DiscoverTranslation hands that result on instead of
// recomputing it. On every datagen family it must equal a fresh
// ComputeCoverage of the returned formula, match for match.
TEST(DiscoverTranslationTest, CoverageEqualsFreshComputeCoverage) {
  struct Case {
    const char* name;
    datagen::Dataset data;
    SearchOptions options;
  };
  SearchOptions separators = FastOptions();
  separators.detect_separators = true;
  SearchOptions citation;
  citation.sample_fraction = 0.05;
  std::vector<Case> cases;
  {
    datagen::UserIdOptions o;
    o.rows = 1000;
    cases.push_back({"userid", datagen::MakeUserIdDataset(o), FastOptions()});
  }
  {
    datagen::TimeOptions o;
    o.rows = 1000;
    cases.push_back({"time", datagen::MakeTimeDataset(o), FastOptions()});
  }
  {
    datagen::MergedNamesOptions o;
    o.rows = 1500;
    o.distinct_names = 300;
    cases.push_back(
        {"mergednames", datagen::MakeMergedNamesDataset(o), FastOptions()});
  }
  {
    datagen::CitationOptions o;
    o.rows = 2000;
    cases.push_back({"citation", datagen::MakeCitationDataset(o), citation});
  }
  {
    datagen::CrossCitationOptions o;
    o.target_rows = 2000;
    o.source_rows = 1000;
    o.exact_overlap = 400;
    o.swapped_overlap = 100;
    cases.push_back(
        {"crosscitation", datagen::MakeCrossCitationDataset(o), citation});
  }
  {
    datagen::DateFormatOptions o;
    o.rows = 1000;
    cases.push_back(
        {"dateformat", datagen::MakeDateFormatDataset(o), separators});
  }
  {
    datagen::PartNumberOptions o;
    o.rows = 1000;
    cases.push_back(
        {"partnumber", datagen::MakePartNumberDataset(o), separators});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto d = DiscoverTranslation(c.data.source, c.data.target,
                                 c.data.target_column, c.options);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE(d->formula().IsComplete());
    const Coverage fresh = TranslationSearch::ComputeCoverage(
        d->formula(), c.data.source, c.data.target, c.data.target_column);
    ASSERT_GT(fresh.matched_rows(), 0u);
    ASSERT_EQ(d->coverage.matched_rows(), fresh.matched_rows());
    for (size_t i = 0; i < fresh.matches.size(); ++i) {
      EXPECT_EQ(d->coverage.matches[i].source_row,
                fresh.matches[i].source_row);
      EXPECT_EQ(d->coverage.matches[i].target_row,
                fresh.matches[i].target_row);
    }
  }
}

}  // namespace
}  // namespace mcsm::core
