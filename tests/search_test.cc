#include "core/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/matcher.h"
#include "core/report.h"
#include "datagen/datasets.h"

namespace mcsm::core {
namespace {

// Small-scale end-to-end searches over the paper's scenarios. The full-size
// runs live in bench/; these guard the pipeline at ctest-friendly sizes.

SearchOptions FastOptions() {
  SearchOptions o;
  o.sample_fraction = 0.10;
  return o;
}

TEST(SearchTest, UserIdDominantFormula) {
  datagen::UserIdOptions o;
  o.rows = 2000;
  auto data = datagen::MakeUserIdDataset(o);
  auto d = DiscoverTranslation(data.source, data.target, 0, FastOptions());
  ASSERT_TRUE(d.ok()) << d.status();
  std::string formula = d->formula().ToString(data.source.schema());
  EXPECT_TRUE(formula == "first[1-1]last[1-n]" ||
              formula == "first[1-1]middle[1-1]last[1-n]")
      << formula;
  EXPECT_GT(d->coverage.matched_rows(), 300u);
  EXPECT_FALSE(d->sql.empty());
}

TEST(SearchTest, UserIdMatchAndRemoveFindsBothFormulas) {
  datagen::UserIdOptions o;
  o.rows = 3000;
  auto data = datagen::MakeUserIdDataset(o);
  auto all = DiscoverAllTranslations(data.source, data.target, 0,
                                     FastOptions(), 4, 50);
  ASSERT_TRUE(all.ok());
  std::set<std::string> found;
  for (const auto& d : *all) {
    found.insert(d.formula().ToString(data.source.schema()));
  }
  EXPECT_TRUE(found.count("first[1-1]last[1-n]") == 1) << all->size();
  EXPECT_TRUE(found.count("first[1-1]middle[1-1]last[1-n]") == 1);
}

TEST(SearchTest, TimeConcatenation) {
  datagen::TimeOptions o;
  o.rows = 3000;
  auto data = datagen::MakeTimeDataset(o);
  auto d = DiscoverTranslation(data.source, data.target, 0, FastOptions());
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->formula().ToString(data.source.schema()),
            "hrs[1-2]mins[1-2]secs[1-2]");
  EXPECT_EQ(d->coverage.matched_rows(), data.target.num_rows());
}

TEST(SearchTest, MergedNamesConcatenation) {
  datagen::MergedNamesOptions o;
  o.rows = 4000;
  o.distinct_names = 800;
  auto data = datagen::MakeMergedNamesDataset(o);
  auto d = DiscoverTranslation(data.source, data.target, 0, FastOptions());
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->formula().ToString(data.source.schema()),
            "first[1-n]last[1-n]");
  EXPECT_EQ(d->coverage.matched_rows(), data.target.num_rows());
}

TEST(SearchTest, CommaSeparatorRecovered) {
  datagen::MergedNamesOptions o;
  o.rows = 3000;
  o.distinct_names = 600;
  o.comma_separator = true;
  auto data = datagen::MakeMergedNamesDataset(o);
  SearchOptions so = FastOptions();
  so.detect_separators = true;
  auto d = DiscoverTranslation(data.source, data.target, 0, so);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->formula().ToString(data.source.schema()),
            "last[1-n]\", \"first[1-n]");
  EXPECT_EQ(d->coverage.matched_rows(), data.target.num_rows());
}

TEST(SearchTest, DateFormatTranslation) {
  datagen::DateFormatOptions o;
  o.rows = 3000;
  auto data = datagen::MakeDateFormatDataset(o);
  SearchOptions so = FastOptions();
  so.detect_separators = true;
  auto d = DiscoverTranslation(data.source, data.target, 0, so);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->formula().ToString(data.source.schema()),
            "date[6-7]\"/\"date[9-10]\"/\"date[1-4]");
  EXPECT_EQ(d->coverage.matched_rows(), data.target.num_rows());
}

TEST(SearchTest, PartNumberSeparators) {
  // Section 6.1's "FRU-13423-2005" example: two hyphens, three fields.
  datagen::PartNumberOptions o;
  o.rows = 3000;
  auto data = datagen::MakePartNumberDataset(o);
  SearchOptions so = FastOptions();
  so.detect_separators = true;
  auto d = DiscoverTranslation(data.source, data.target, 0, so);
  ASSERT_TRUE(d.ok()) << d.status();
  std::string formula = d->formula().ToString(data.source.schema());
  // All three fields are fixed width, so the sized rendering ([1-3] etc.)
  // denotes the same translation as the to-end one.
  EXPECT_TRUE(formula == "plant[1-n]\"-\"serial[1-n]\"-\"year[1-n]" ||
              formula == "plant[1-3]\"-\"serial[1-5]\"-\"year[1-4]")
      << formula;
  EXPECT_EQ(d->coverage.matched_rows(), data.target.num_rows());
}

TEST(SearchTest, CitationConcatenation) {
  datagen::CitationOptions o;
  o.rows = 5000;
  auto data = datagen::MakeCitationDataset(o);
  SearchOptions so;
  so.sample_fraction = 0.02;
  auto d = DiscoverTranslation(data.source, data.target, 0, so);
  ASSERT_TRUE(d.ok()) << d.status();
  std::string formula = d->formula().ToString(data.source.schema());
  // year[1-4] and year[1-n] are observationally identical (years are 4
  // chars); accept either rendering.
  EXPECT_TRUE(formula == "year[1-4]title[1-n]author1[1-n]" ||
              formula == "year[1-n]title[1-n]author1[1-n]")
      << formula;
  EXPECT_EQ(d->coverage.matched_rows(), data.target.num_rows());
}

TEST(SearchTest, StepwiseApiReportsScores) {
  datagen::UserIdOptions o;
  o.rows = 1000;
  auto data = datagen::MakeUserIdDataset(o);
  TranslationSearch search(data.source, data.target, 0, FastOptions());
  auto col = search.SelectStartColumn();
  ASSERT_TRUE(col.ok());
  const std::vector<double>& scores = col->scores;
  ASSERT_EQ(scores.size(), data.source.num_columns());
  // The name columns must outscore every noise column (Table 2's shape;
  // the paper's own first/last scores are within 15%% of each other, so the
  // argmax between them is sample-dependent).
  size_t last = *data.source.schema().FindColumn("last");
  size_t first = *data.source.schema().FindColumn("first");
  for (size_t c = 0; c < scores.size(); ++c) {
    std::string name = data.source.schema().column(c).name;
    if (name == "text" || name == "time" || name == "numb" || name == "addr") {
      EXPECT_GT(scores[last], scores[c]) << name;
      EXPECT_GT(scores[first], scores[c]) << name;
    }
  }
  EXPECT_TRUE(col->best_column == last || col->best_column == first);
}

TEST(SearchTest, InitialFormulaFromStartColumn) {
  datagen::UserIdOptions o;
  o.rows = 1000;
  auto data = datagen::MakeUserIdDataset(o);
  TranslationSearch search(data.source, data.target, 0, FastOptions());
  auto f = search.BuildInitialFormula(
      *data.source.schema().FindColumn("last"));
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->ToString(data.source.schema()), "%last[1-n]");
}

TEST(SearchTest, LinkageConstrainsAndAccelerates) {
  datagen::UserIdOptions o;
  o.rows = 1500;
  o.with_dates = true;
  auto data = datagen::MakeUserIdDataset(o);

  // Known login translation provides the row linkage (Section 6.2).
  TranslationFormula login({Region::Span(0, 1, 1), Region::SpanToEnd(2, 1)});
  auto linkage = BuildLinkage(login, data.source, data.target, 0);
  size_t linked = 0;
  for (size_t l : linkage) {
    if (l != TranslationSearch::kNoLink) ++linked;
  }
  EXPECT_GT(linked, 400u);

  SearchOptions so = FastOptions();
  so.detect_separators = true;
  TranslationSearch dob(data.source, data.target, 1, so);
  dob.SetLinkage(linkage);
  auto result = dob.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->formula.ToString(data.source.schema()),
            "birth[1-2]\"/\"birth[4-5]\"/\"birth[9-10]");
  auto coverage =
      TranslationSearch::ComputeCoverage(result->formula, data.source,
                                         data.target, 1);
  EXPECT_EQ(coverage.matched_rows(), data.target.num_rows());
}

TEST(SearchTest, CoverageLinksEachTargetRowOnce) {
  relational::Table source = relational::Table::WithTextColumns({"a"});
  relational::Table target = relational::Table::WithTextColumns({"t"});
  // Two source rows produce "x", but only one target "x" exists.
  ASSERT_TRUE(source.AppendTextRow({"x"}).ok());
  ASSERT_TRUE(source.AppendTextRow({"x"}).ok());
  ASSERT_TRUE(target.AppendTextRow({"x"}).ok());
  TranslationFormula f({Region::SpanToEnd(0, 1)});
  auto coverage = TranslationSearch::ComputeCoverage(f, source, target, 0);
  EXPECT_EQ(coverage.matched_rows(), 1u);
}

TEST(SearchTest, CoverageOfIncompleteFormulaIsEmpty) {
  relational::Table source = relational::Table::WithTextColumns({"a"});
  relational::Table target = relational::Table::WithTextColumns({"t"});
  ASSERT_TRUE(source.AppendTextRow({"x"}).ok());
  ASSERT_TRUE(target.AppendTextRow({"x"}).ok());
  TranslationFormula f({Region::Unknown()});
  EXPECT_EQ(TranslationSearch::ComputeCoverage(f, source, target, 0)
                .matched_rows(),
            0u);
}

TEST(SearchTest, RobustnessToUnmatchedRows) {
  // Section 4.1's sweep: with a moderate number of extra unmatched source
  // rows the dominant formula is still found.
  datagen::UserIdOptions o;
  o.rows = 1500;
  o.extra_unmatched_rows = 500;
  auto data = datagen::MakeUserIdDataset(o);
  auto d = DiscoverTranslation(data.source, data.target, 0, FastOptions());
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(d->formula().IsComplete());
  EXPECT_GT(d->coverage.matched_rows(), 200u);
}

TEST(SearchTest, NoSharedContentFails) {
  relational::Table source = relational::Table::WithTextColumns({"a"});
  relational::Table target = relational::Table::WithTextColumns({"t"});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(source.AppendTextRow({"aaaa"}).ok());
    ASSERT_TRUE(target.AppendTextRow({"zzzz"}).ok());
  }
  TranslationSearch search(source, target, 0, FastOptions());
  auto result = search.Run();
  EXPECT_FALSE(result.ok());
}

// Eq. 5 visits candidates in key order ("c<col>|" + rendering) and keeps the
// first of an exact tie. Columns 2 and 10 hold the same values, so every
// candidate from one has a twin from the other with the same score and the
// same known characters. The key "c10|..." sorts before "c2|...", so column
// 10 must win, although column 2 is aligned first in every slot.
TEST(SearchTest, Eq5TieGoesToTheEarlierKey) {
  std::vector<std::string> names;
  for (int c = 0; c <= 10; ++c) names.push_back("c" + std::to_string(c));
  relational::Table source = relational::Table::WithTextColumns(names);
  relational::Table target = relational::Table::WithTextColumns({"t"});
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const std::string value = rng.RandomString(4, "abcdefghijklmnop");
    std::vector<std::string> row(names.size());
    row[2] = value;
    row[10] = value;
    ASSERT_TRUE(source.AppendTextRow(row).ok());
    ASSERT_TRUE(target.AppendTextRow({"-" + value}).ok());
  }
  InMemoryTraceSink sink;
  SearchOptions options = FastOptions();
  options.num_threads = 1;
  options.env.trace = &sink;
  TranslationSearch search(source, target, 0, options);
  TranslationFormula formula({Region::Literal("-"), Region::Unknown()});
  IterationInfo info;
  auto improved = search.RefineOnce(&formula, &info);
  ASSERT_TRUE(improved.ok()) << improved.status();
  ASSERT_TRUE(*improved);
  EXPECT_EQ(info.chosen_column, 10u);
  EXPECT_EQ(formula.ReferencedColumns(), std::vector<size_t>{10});

  // The tie is real: column 2's twin of the winner scored the same, and so
  // did both end-of-string clones, which know fewer fixed characters.
  double winner_score = -1;
  for (const TraceEvent& e : sink.CanonicalEvents()) {
    if (e.name == "iteration_winner") winner_score = e.value;
  }
  std::vector<std::pair<int64_t, std::string>> at_winner_score;
  for (const TraceEvent& e : sink.CanonicalEvents()) {
    if (e.name == "candidate_formula" && e.value == winner_score) {
      at_winner_score.emplace_back(e.column, e.detail);
    }
  }
  std::sort(at_winner_score.begin(), at_winner_score.end());
  const std::vector<std::pair<int64_t, std::string>> expected = {
      {2, "\"-\"c2[1-4]"},
      {2, "\"-\"c2[1-n]"},
      {10, "\"-\"c10[1-4]"},
      {10, "\"-\"c10[1-n]"}};
  EXPECT_EQ(at_winner_score, expected);
  EXPECT_EQ(formula.ToString(source.schema()), "\"-\"c10[1-4]");
}

TEST(SearchTest, StatsAreRecorded) {
  datagen::UserIdOptions o;
  o.rows = 800;
  auto data = datagen::MakeUserIdDataset(o);
  TranslationSearch search(data.source, data.target, 0, FastOptions());
  auto result = search.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.step1_seconds, 0.0);
  EXPECT_GT(result->stats.step2_seconds, 0.0);
  EXPECT_GT(result->stats.recipes_built, 0u);
  EXPECT_GT(result->stats.pairs_scored, 0u);
  EXPECT_GT(result->stats.total_seconds(), 0.0);
}

// Determinism contract of the parallel pipeline: the same input must yield
// byte-identical results for every thread count (workers fill pre-sized
// slots merged in index order — see DESIGN.md). `seconds` fields are the
// only permitted difference, so snapshots exclude them.
struct RunSnapshot {
  std::string formula;
  size_t start_column = 0;
  std::vector<std::tuple<size_t, std::string, size_t, double>> iterations;
  size_t covered = 0;
  std::string report;

  bool operator==(const RunSnapshot&) const = default;
};

RunSnapshot SnapshotRun(const datagen::Dataset& data, SearchOptions options,
                        size_t threads) {
  options.num_threads = threads;
  auto d = DiscoverTranslation(data.source, data.target, data.target_column,
                               options);
  EXPECT_TRUE(d.ok()) << d.status();
  RunSnapshot snap;
  if (!d.ok()) return snap;
  snap.formula = d->formula().ToString(data.source.schema());
  snap.start_column = d->search.start_column;
  for (const auto& it : d->search.iterations) {
    snap.iterations.emplace_back(it.chosen_column, it.formula, it.support,
                                 it.score);
  }
  snap.covered = d->coverage.matched_rows();
  snap.report = EvaluateTranslation(d->formula(), data.source, data.target,
                                    data.target_column)
                    .ToString();
  return snap;
}

TEST(SearchParallelTest, CitationRunIsIdenticalAcrossThreadCounts) {
  datagen::CitationOptions o;
  o.rows = 3000;
  auto data = datagen::MakeCitationDataset(o);
  SearchOptions so;
  so.sample_fraction = 0.02;
  RunSnapshot one = SnapshotRun(data, so, 1);
  RunSnapshot two = SnapshotRun(data, so, 2);
  RunSnapshot eight = SnapshotRun(data, so, 8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_FALSE(one.formula.empty());
}

TEST(SearchParallelTest, MergedNamesRunIsIdenticalAcrossThreadCounts) {
  datagen::MergedNamesOptions o;
  o.rows = 4000;
  o.distinct_names = 800;
  auto data = datagen::MakeMergedNamesDataset(o);
  RunSnapshot one = SnapshotRun(data, FastOptions(), 1);
  RunSnapshot two = SnapshotRun(data, FastOptions(), 2);
  RunSnapshot eight = SnapshotRun(data, FastOptions(), 8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.formula, "first[1-n]last[1-n]");
}

TEST(SearchParallelTest, BudgetTruncationTripsTheSameAxisAtAnyThreadCount) {
  datagen::CitationOptions o;
  o.rows = 3000;
  auto data = datagen::MakeCitationDataset(o);
  for (size_t threads : {1u, 2u, 8u}) {
    SearchOptions so;
    so.sample_fraction = 0.02;
    so.num_threads = threads;
    // Only the postings axis is capped, so it is the only axis that can
    // trip (where it lands is pinned down by the test below).
    so.env.budget.max_postings_scanned = 2000;
    TranslationSearch search(data.source, data.target, data.target_column, so);
    auto result = search.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->truncated) << threads;
    EXPECT_EQ(result->budget_trip, BudgetTrip::kPostings) << threads;
    EXPECT_EQ(search.budget().trip(), BudgetTrip::kPostings);
  }
}

// Everything a capped run reports: the work caps are charged through
// per-slot meters and admitted in slot order, so none of it may depend on
// the thread count or the scheduling.
struct CappedSnapshot {
  std::string formula;
  size_t start_column = 0;
  std::vector<std::tuple<size_t, std::string, size_t, double>> iterations;
  bool truncated = false;
  BudgetTrip result_trip = BudgetTrip::kNone;
  BudgetTrip budget_trip = BudgetTrip::kNone;
  std::vector<uint64_t> counters;

  bool operator==(const CappedSnapshot&) const = default;
};

CappedSnapshot SnapshotCappedRun(const datagen::Dataset& data,
                                 SearchOptions options, size_t threads) {
  options.num_threads = threads;
  TranslationSearch search(data.source, data.target, data.target_column,
                           options);
  auto result = search.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  CappedSnapshot snap;
  if (!result.ok()) return snap;
  snap.formula = result->formula.ToString(data.source.schema());
  snap.start_column = result->start_column;
  for (const auto& it : result->iterations) {
    snap.iterations.emplace_back(it.chosen_column, it.formula, it.support,
                                 it.score);
  }
  snap.truncated = result->truncated;
  snap.result_trip = result->budget_trip;
  snap.budget_trip = search.budget().trip();
  snap.counters = {result->stats.pairs_scored,
                   result->stats.recipes_built,
                   result->stats.formulas_considered,
                   search.budget().postings_scanned(),
                   search.budget().pairs_aligned(),
                   search.budget().candidate_formulas()};
  return snap;
}

TEST(SearchParallelTest, WorkCapsCutTheSameRunAtEveryThreadCount) {
  datagen::UserIdOptions o;
  o.rows = 1000;
  auto data = datagen::MakeUserIdDataset(o);
  const CappedSnapshot uncapped = SnapshotCappedRun(data, FastOptions(), 1);
  ASSERT_EQ(uncapped.budget_trip, BudgetTrip::kNone);
  struct Axis {
    uint64_t BudgetLimits::*cap;
    uint64_t used;  ///< what the uncapped run charged on this axis
    BudgetTrip trip;
  };
  const Axis axes[] = {
      {&BudgetLimits::max_postings_scanned, uncapped.counters[3],
       BudgetTrip::kPostings},
      {&BudgetLimits::max_pairs_aligned, uncapped.counters[4],
       BudgetTrip::kPairs},
      {&BudgetLimits::max_candidate_formulas, uncapped.counters[5],
       BudgetTrip::kFormulas},
  };
  for (const Axis& axis : axes) {
    ASSERT_GT(axis.used, 64u);
    // Eight caps from the first charge to just short of the whole run, so
    // trips land in step 2 and in the refinement iterations.
    for (const uint64_t cap :
         {uint64_t{1}, axis.used / 64, axis.used / 16, axis.used / 4,
          axis.used / 2, axis.used * 3 / 4, axis.used * 7 / 8,
          axis.used - 1}) {
      SearchOptions so = FastOptions();
      so.env.budget.*axis.cap = cap;
      const CappedSnapshot one = SnapshotCappedRun(data, so, 1);
      // A formula that still passes coverage validation is returned as a
      // full success, so only the budget itself must show the trip.
      EXPECT_EQ(one.budget_trip, axis.trip) << cap;
      for (const size_t threads : {2, 4, 8}) {
        EXPECT_EQ(SnapshotCappedRun(data, so, threads), one)
            << "cap=" << cap << " threads=" << threads;
      }
    }
  }
}

TEST(SearchTest, InjectedIndexForDifferentTableIsRejected) {
  // A cached index whose q/column/postings all match but which was built
  // over a DIFFERENT table must be rejected (row-count mismatch) and fall
  // back to a local build — injecting it must not change results.
  datagen::UserIdOptions o;
  o.rows = 2000;
  auto data = datagen::MakeUserIdDataset(o);
  datagen::UserIdOptions stale_options = o;
  stale_options.rows = 400;
  auto stale = datagen::MakeUserIdDataset(stale_options);

  relational::ColumnIndex::Options idx;
  idx.q = 2;
  idx.build_postings = true;
  SearchOptions injected_options = FastOptions();
  injected_options.env.target_index =
      std::make_shared<relational::ColumnIndex>(stale.target, 0, idx);

  auto clean = DiscoverTranslation(data.source, data.target, 0, FastOptions());
  auto injected =
      DiscoverTranslation(data.source, data.target, 0, injected_options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(injected.ok()) << injected.status();
  EXPECT_EQ(injected->formula().ToString(data.source.schema()),
            clean->formula().ToString(data.source.schema()));
  EXPECT_EQ(injected->coverage.matched_rows(),
            clean->coverage.matched_rows());
}

TEST(SearchTest, InjectedSourceSummariesAreValidatedAndTransparent) {
  // The source provider's summaries are used when they describe the asked
  // column of a table with the source's row count; a summary of another
  // column or table falls back to a local build. Either way the formula and
  // coverage equal an uninjected run. Indexes convert to summaries, so a
  // provider of ColumnIndexes is accepted too.
  datagen::UserIdOptions o;
  o.rows = 1000;
  auto data = datagen::MakeUserIdDataset(o);
  datagen::UserIdOptions stale_options = o;
  stale_options.rows = 300;
  auto stale = datagen::MakeUserIdDataset(stale_options);
  auto clean = DiscoverTranslation(data.source, data.target, 0, FastOptions());
  ASSERT_TRUE(clean.ok()) << clean.status();

  std::atomic<int> calls{0};
  const std::vector<std::function<
      std::shared_ptr<const relational::ColumnSummary>(size_t)>>
      providers = {
          [&](size_t column) {
            ++calls;
            return std::make_shared<relational::ColumnSummary>(data.source,
                                                               column);
          },
          [&](size_t column) {
            ++calls;
            return std::make_shared<relational::ColumnIndex>(
                data.source, column, relational::ColumnIndex::Options{});
          },
          [&](size_t column) {  // wrong column
            ++calls;
            return std::make_shared<relational::ColumnSummary>(
                data.source, column == 0 ? 1 : 0);
          },
          [&](size_t column) {  // wrong table
            ++calls;
            return std::make_shared<relational::ColumnSummary>(stale.source,
                                                               column);
          },
          [&](size_t) { ++calls; return nullptr; },
      };
  for (size_t i = 0; i < providers.size(); ++i) {
    calls = 0;
    SearchOptions injected_options = FastOptions();
    injected_options.env.source_index_provider = providers[i];
    auto injected =
        DiscoverTranslation(data.source, data.target, 0, injected_options);
    ASSERT_TRUE(injected.ok()) << injected.status();
    EXPECT_GT(calls.load(), 0) << "provider " << i;
    EXPECT_LE(calls.load(), static_cast<int>(data.source.num_columns()))
        << "provider " << i;  // at most once per column
    EXPECT_EQ(injected->formula().ToString(data.source.schema()),
              clean->formula().ToString(data.source.schema()))
        << "provider " << i;
    EXPECT_EQ(injected->coverage.matched_rows(),
              clean->coverage.matched_rows())
        << "provider " << i;
  }
}

TEST(SearchParallelTest, StepwiseScoresAreIdenticalAcrossThreadCounts) {
  datagen::UserIdOptions o;
  o.rows = 1000;
  auto data = datagen::MakeUserIdDataset(o);
  std::vector<std::vector<double>> per_thread_scores;
  for (size_t threads : {1u, 2u, 8u}) {
    SearchOptions so = FastOptions();
    so.num_threads = threads;
    TranslationSearch search(data.source, data.target, 0, so);
    auto col = search.SelectStartColumn();
    ASSERT_TRUE(col.ok());
    per_thread_scores.push_back(std::move(col->scores));
  }
  // Bitwise equality, not tolerance: the merge order fixes the float
  // accumulation order.
  EXPECT_EQ(per_thread_scores[0], per_thread_scores[1]);
  EXPECT_EQ(per_thread_scores[0], per_thread_scores[2]);
}

}  // namespace
}  // namespace mcsm::core
