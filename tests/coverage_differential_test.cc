// Coverage, the report and merged-rule coverage run compiled formulas on the
// VM and join through one TargetJoin. This suite checks all three against the
// per-row Apply references of tests/coverage_reference.h, match for match
// (source row, target row, in order) and count for count: on every datagen
// family at several search thread counts, and on hand tables built around
// the join's hazards.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/report.h"
#include "core/rule_merger.h"
#include "core/search.h"
#include "coverage_reference.h"
#include "datagen/datasets.h"
#include "vm/program.h"

namespace mcsm::core {
namespace {

using relational::Table;
using relational::Value;

void ExpectSameMatches(const Coverage& actual, const Coverage& expected) {
  ASSERT_EQ(actual.matched_rows(), expected.matched_rows());
  for (size_t i = 0; i < expected.matches.size(); ++i) {
    EXPECT_EQ(actual.matches[i].source_row, expected.matches[i].source_row)
        << "match " << i;
    EXPECT_EQ(actual.matches[i].target_row, expected.matches[i].target_row)
        << "match " << i;
  }
}

void ExpectSameReport(const TranslationReport& actual,
                      const TranslationReport& expected) {
  EXPECT_EQ(actual.source_rows, expected.source_rows);
  EXPECT_EQ(actual.target_rows, expected.target_rows);
  EXPECT_EQ(actual.covered, expected.covered);
  EXPECT_EQ(actual.unsatisfiable, expected.unsatisfiable);
  EXPECT_EQ(actual.produced_unmatched, expected.produced_unmatched);
  EXPECT_EQ(actual.target_unexplained, expected.target_unexplained);
}

/// ComputeCoverage, EvaluateTranslation and the coverage of the formula as
/// a one-formula MergedRule, each against its reference.
void ExpectAgreement(const TranslationFormula& formula, const Table& source,
                     const Table& target, size_t target_column) {
  SCOPED_TRACE(formula.ToString(source.schema()));
  const Coverage coverage = TranslationSearch::ComputeCoverage(
      formula, source, target, target_column);
  ExpectSameMatches(coverage, reference::Coverage(formula, source, target,
                                                  target_column));
  const TranslationReport report =
      EvaluateTranslation(formula, source, target, target_column);
  ExpectSameReport(report, reference::Report(formula, source, target,
                                             target_column));
  EXPECT_EQ(report.covered, coverage.matched_rows());
  const MergedRule rule = MergedRule::FromFormula(formula);
  ExpectSameMatches(
      rule.ComputeCoverage(source, target, target_column),
      reference::MergedCoverage(rule, source, target, target_column));
}

void ExpectMergedAgreement(const MergedRule& rule, const Table& source,
                           const Table& target, size_t target_column) {
  SCOPED_TRACE(rule.ToString(source.schema()));
  ExpectSameMatches(
      rule.ComputeCoverage(source, target, target_column),
      reference::MergedCoverage(rule, source, target, target_column));
  for (const TranslationFormula& f : rule.Expansions()) {
    ExpectAgreement(f, source, target, target_column);
  }
}

Table TextTable(const std::vector<std::string>& columns,
                const std::vector<std::vector<std::string>>& rows) {
  Table t = Table::WithTextColumns(columns);
  for (const auto& row : rows) EXPECT_TRUE(t.AppendTextRow(row).ok());
  return t;
}

// ---------------------------------------------------------------------------
// Every datagen family, discovered at search threads {1, 2, 8}.

struct Family {
  std::string name;
  datagen::Dataset data;
  SearchOptions options;
};

std::vector<Family> Families() {
  SearchOptions fast;
  fast.sample_fraction = 0.10;
  SearchOptions separators = fast;
  separators.detect_separators = true;
  SearchOptions citation;
  citation.sample_fraction = 0.05;
  std::vector<Family> families;
  {
    datagen::UserIdOptions o;
    o.rows = 1000;
    families.push_back({"userid", datagen::MakeUserIdDataset(o), fast});
  }
  {
    datagen::TimeOptions o;
    o.rows = 1000;
    families.push_back({"time", datagen::MakeTimeDataset(o), fast});
  }
  {
    datagen::MergedNamesOptions o;
    o.rows = 1500;
    o.distinct_names = 300;
    families.push_back(
        {"mergednames", datagen::MakeMergedNamesDataset(o), fast});
  }
  {
    datagen::MergedNamesOptions o;
    o.rows = 1500;
    o.distinct_names = 300;
    o.comma_separator = true;
    families.push_back(
        {"commanames", datagen::MakeMergedNamesDataset(o), separators});
  }
  {
    datagen::CitationOptions o;
    o.rows = 2000;
    families.push_back({"citation", datagen::MakeCitationDataset(o), citation});
  }
  {
    datagen::CrossCitationOptions o;
    o.target_rows = 2000;
    o.source_rows = 1000;
    o.exact_overlap = 400;
    o.swapped_overlap = 100;
    families.push_back(
        {"crosscitation", datagen::MakeCrossCitationDataset(o), citation});
  }
  {
    datagen::DateFormatOptions o;
    o.rows = 1000;
    families.push_back(
        {"dateformat", datagen::MakeDateFormatDataset(o), separators});
  }
  {
    datagen::PartNumberOptions o;
    o.rows = 1000;
    families.push_back(
        {"partnumber", datagen::MakePartNumberDataset(o), separators});
  }
  return families;
}

TEST(CoverageDifferentialTest, DatagenFamiliesAtEveryThreadCount) {
  for (Family& family : Families()) {
    SCOPED_TRACE(family.name);
    const datagen::Dataset& data = family.data;
    std::string first_formula;
    Coverage first_coverage;
    for (const size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      family.options.num_threads = threads;
      auto d = DiscoverTranslation(data.source, data.target,
                                   data.target_column, family.options);
      ASSERT_TRUE(d.ok()) << d.status();
      ASSERT_TRUE(d->formula().IsComplete());
      // Run()'s coverage validation is the production coverage path.
      const Coverage expected = reference::Coverage(
          d->formula(), data.source, data.target, data.target_column);
      ASSERT_GT(expected.matched_rows(), 0u);
      ExpectSameMatches(d->coverage, expected);
      ExpectAgreement(d->formula(), data.source, data.target,
                      data.target_column);
      // The determinism contract: the same formula and matches at every
      // thread count.
      const std::string formula = d->formula().ToString(data.source.schema());
      if (threads == 1) {
        first_formula = formula;
        first_coverage = d->coverage;
      } else {
        EXPECT_EQ(formula, first_formula);
        ExpectSameMatches(d->coverage, first_coverage);
      }
    }
  }
}

TEST(CoverageDifferentialTest, UserIdLoginRuleWithOptionalMiddle) {
  datagen::UserIdOptions o;
  o.rows = 2000;
  const auto data = datagen::MakeUserIdDataset(o);
  const TranslationFormula dominant(
      {Region::Span(0, 1, 1), Region::SpanToEnd(2, 1)});
  const TranslationFormula secondary(
      {Region::Span(0, 1, 1), Region::Span(1, 1, 1), Region::SpanToEnd(2, 1)});
  const auto rule = MergedRule::Merge(dominant, secondary);
  ASSERT_TRUE(rule.has_value());
  ExpectMergedAgreement(*rule, data.source, data.target, data.target_column);
}

// ---------------------------------------------------------------------------
// Hazard tables.

TEST(CoverageHazardTest, TargetValuesRepeatMoreOftenThanProduced) {
  // "ab" is held by target rows 0, 2 and 4 but produced twice: the two
  // producing source rows take rows 0 and 2, in source order.
  const Table source = TextTable({"a"}, {{"zz"}, {"ab"}, {"qq"}, {"ab"}});
  const Table target =
      TextTable({"t"}, {{"ab"}, {"zz"}, {"ab"}, {"yy"}, {"ab"}});
  const TranslationFormula f({Region::SpanToEnd(0, 1)});
  ExpectAgreement(f, source, target, 0);
  const Coverage coverage =
      TranslationSearch::ComputeCoverage(f, source, target, 0);
  ASSERT_EQ(coverage.matched_rows(), 3u);
  EXPECT_EQ(coverage.matches[0].source_row, 0u);
  EXPECT_EQ(coverage.matches[0].target_row, 1u);
  EXPECT_EQ(coverage.matches[1].source_row, 1u);
  EXPECT_EQ(coverage.matches[1].target_row, 0u);
  EXPECT_EQ(coverage.matches[2].source_row, 3u);
  EXPECT_EQ(coverage.matches[2].target_row, 2u);
}

TEST(CoverageHazardTest, TargetValuesRepeatLessOftenThanProduced) {
  // Four rows produce "ab", the target holds it twice: the first two take
  // it, the other two count as produced but unmatched.
  const Table source =
      TextTable({"a"}, {{"ab"}, {"ab"}, {"cd"}, {"ab"}, {"ab"}});
  const Table target = TextTable({"t"}, {{"cd"}, {"ab"}, {"ab"}});
  const TranslationFormula f({Region::SpanToEnd(0, 1)});
  ExpectAgreement(f, source, target, 0);
  const TranslationReport report = EvaluateTranslation(f, source, target, 0);
  EXPECT_EQ(report.covered, 3u);
  EXPECT_EQ(report.produced_unmatched, 2u);
  EXPECT_EQ(report.unsatisfiable, 0u);
}

TEST(CoverageHazardTest, NullAndEmptyTargetCells) {
  // NULL and empty target cells never match, also not an empty produced
  // value; the "x" row after them still does.
  const Table source = TextTable({"a"}, {{"x"}, {""}, {"x"}});
  Table target = Table::WithTextColumns({"t"});
  ASSERT_TRUE(target.AppendRow({Value::MakeNull()}).ok());
  ASSERT_TRUE(target.AppendTextRow({""}).ok());
  ASSERT_TRUE(target.AppendTextRow({"x"}).ok());
  ASSERT_TRUE(target.AppendRow({Value::MakeNull()}).ok());
  for (const TranslationFormula& f :
       {TranslationFormula({Region::SpanToEnd(0, 1)}),
        TranslationFormula({Region::Literal("")})}) {
    ExpectAgreement(f, source, target, 0);
  }
  const Coverage coverage = TranslationSearch::ComputeCoverage(
      TranslationFormula({Region::SpanToEnd(0, 1)}), source, target, 0);
  ASSERT_EQ(coverage.matched_rows(), 1u);
  EXPECT_EQ(coverage.matches[0].target_row, 2u);
}

TEST(CoverageHazardTest, SpansThatDoNotFitSomeRows) {
  // first[1-2] + last[2-n]: short, empty and NULL cells leave their rows
  // unproduced.
  Table source = Table::WithTextColumns({"first", "last"});
  ASSERT_TRUE(source.AppendTextRow({"henry", "warner"}).ok());
  ASSERT_TRUE(source.AppendTextRow({"h", "warner"}).ok());
  ASSERT_TRUE(source.AppendTextRow({"henry", "w"}).ok());
  ASSERT_TRUE(source.AppendTextRow({"", "poe"}).ok());
  ASSERT_TRUE(source.AppendRow({Value::MakeNull(), Value("poe")}).ok());
  ASSERT_TRUE(source.AppendRow({Value("mary"), Value::MakeNull()}).ok());
  ASSERT_TRUE(source.AppendTextRow({"mary", "hara"}).ok());
  const Table target =
      TextTable({"t"}, {{"maara"}, {"hearner"}, {"he"}, {"hearner"}});
  const TranslationFormula f({Region::Span(0, 1, 2), Region::SpanToEnd(1, 2)});
  ExpectAgreement(f, source, target, 0);
  const TranslationReport report = EvaluateTranslation(f, source, target, 0);
  EXPECT_EQ(report.covered, 2u);
  EXPECT_EQ(report.unsatisfiable, 5u);
}

TEST(CoverageHazardTest, AllLiteralFormula) {
  // Every row produces "x-1"; the target holds it twice.
  const Table source = TextTable({"a"}, {{"p"}, {""}, {"q"}, {"r"}});
  const Table target = TextTable({"t"}, {{"x-1"}, {"y"}, {"x-1"}});
  const TranslationFormula f({Region::Literal("x-"), Region::Literal("1")});
  ExpectAgreement(f, source, target, 0);
  const Coverage coverage =
      TranslationSearch::ComputeCoverage(f, source, target, 0);
  ASSERT_EQ(coverage.matched_rows(), 2u);
  EXPECT_EQ(coverage.matches[1].source_row, 1u);
  EXPECT_EQ(coverage.matches[1].target_row, 2u);
}

TEST(CoverageHazardTest, EmptyAndIncompleteFormulasMatchNothing) {
  const Table source = TextTable({"a"}, {{"x"}, {"y"}});
  const Table target = TextTable({"t"}, {{"x"}, {"y"}});
  for (const TranslationFormula& f :
       {TranslationFormula(), TranslationFormula({Region::Unknown()}),
        TranslationFormula({Region::SpanToEnd(0, 1), Region::Unknown()})}) {
    ExpectAgreement(f, source, target, 0);
    EXPECT_EQ(
        TranslationSearch::ComputeCoverage(f, source, target, 0).matched_rows(),
        0u);
    const TranslationReport report = EvaluateTranslation(f, source, target, 0);
    EXPECT_EQ(report.unsatisfiable, 2u);
    EXPECT_EQ(report.target_unexplained, 2u);
  }
}

TEST(CoverageHazardTest, MergedRuleWithOptionalRegions) {
  // first[1-1] (middle[1-1])? last[1-n]: a row tries the longer expansion
  // first and falls back to the shorter one when the longer value has no
  // unused target row left; rows where the middle is missing only produce
  // the shorter value.
  Table source = Table::WithTextColumns({"first", "middle", "last"});
  ASSERT_TRUE(source.AppendTextRow({"henry", "j", "warner"}).ok());
  ASSERT_TRUE(source.AppendTextRow({"henry", "j", "warner"}).ok());
  ASSERT_TRUE(source.AppendTextRow({"henry", "j", "warner"}).ok());
  ASSERT_TRUE(source.AppendTextRow({"mary", "", "poe"}).ok());
  ASSERT_TRUE(source.AppendRow({Value("ann"), Value::MakeNull(), Value("li")})
                  .ok());
  ASSERT_TRUE(source.AppendTextRow({"bob", "k", ""}).ok());
  const Table target = TextTable(
      {"t"}, {{"hwarner"}, {"mpoe"}, {"hjwarner"}, {"ali"}, {"bk"}});
  const auto rule = MergedRule::Merge(
      TranslationFormula({Region::Span(0, 1, 1), Region::Span(1, 1, 1),
                          Region::SpanToEnd(2, 1)}),
      TranslationFormula({Region::Span(0, 1, 1), Region::SpanToEnd(2, 1)}));
  ASSERT_TRUE(rule.has_value());
  ASSERT_EQ(rule->OptionalCount(), 1u);
  ExpectMergedAgreement(*rule, source, target, 0);
  const Coverage coverage = rule->ComputeCoverage(source, target, 0);
  // hjwarner, then hwarner, then nothing left for the third henry.
  ASSERT_EQ(coverage.matched_rows(), 4u);
  EXPECT_EQ(coverage.matches[0].target_row, 2u);
  EXPECT_EQ(coverage.matches[1].target_row, 0u);
  EXPECT_EQ(coverage.matches[2].source_row, 3u);
  EXPECT_EQ(coverage.matches[3].source_row, 4u);

  // Every part optional: one expansion is empty and produces nothing.
  const auto first_last = MergedRule::Merge(
      TranslationFormula({Region::Span(0, 1, 1), Region::SpanToEnd(2, 1)}),
      TranslationFormula({Region::Span(0, 1, 1)}));
  ASSERT_TRUE(first_last.has_value());
  const auto all_optional =
      first_last->MergedWith(TranslationFormula({Region::SpanToEnd(2, 1)}));
  ASSERT_TRUE(all_optional.has_value());
  ASSERT_EQ(all_optional->OptionalCount(), 2u);
  ASSERT_EQ(all_optional->Expansions().size(), 4u);
  EXPECT_TRUE(all_optional->Expansions().back().empty());
  ExpectMergedAgreement(*all_optional, source, target, 0);
}

/// Distinct values of varying length for the one meaningful column of a
/// wide source.
std::string WideValue(size_t row) {
  static const char* const kWords[] = {
      "henry", "jo", "warner", "li", "anastasia", "poe", "mcallister"};
  return std::string(kWords[row % 7]) + kWords[(row / 7) % 7] +
         std::to_string(row);
}

TEST(CoverageHazardTest, SourceWiderThanTheWireCaps) {
  // The wire form caps a program at 4096 columns and 1MiB of literals; a
  // formula compiled against a real schema is not held to them, so coverage
  // of a column past the cap, or of a longer literal, is what Apply gives.
  const size_t columns = vm::Program::kMaxColumns + 1;
  const size_t last = columns - 1;
  std::vector<std::string> names;
  for (size_t c = 0; c < columns; ++c) names.push_back("c" + std::to_string(c));
  Table source = Table::WithTextColumns(names);
  Table target = Table::WithTextColumns({"t"});
  for (size_t row = 0; row < 60; ++row) {
    std::vector<std::string> cells(columns, "z");
    cells[last] = WideValue(row);
    ASSERT_TRUE(target.AppendTextRow({cells[last]}).ok());
    ASSERT_TRUE(source.AppendTextRow(cells).ok());
  }
  ExpectAgreement(TranslationFormula({Region::SpanToEnd(last, 1)}), source,
                  target, 0);
  auto d = DiscoverTranslation(source, target, 0);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->formula().ToString(source.schema()), "c4096[1-n]");
  ExpectSameMatches(d->coverage, reference::Coverage(d->formula(), source,
                                                     target, 0));
  EXPECT_EQ(d->coverage.matched_rows(), 60u);

  const std::string literal(vm::Program::kMaxLiteralBytes + 1, 'x');
  const Table narrow = TextTable({"a"}, {{"p"}, {"q"}});
  const Table long_target = TextTable({"t"}, {{"r"}, {literal + "q"}});
  const TranslationFormula f(
      {Region::Literal(literal), Region::SpanToEnd(0, 1)});
  ExpectAgreement(f, narrow, long_target, 0);
  EXPECT_EQ(TranslationSearch::ComputeCoverage(f, narrow, long_target, 0)
                .matched_rows(),
            1u);
}

/// A formula past the VM's register limit: 65 one-character spans.
struct UnrunnableFormula {
  Table source;
  Table target;
  TranslationFormula formula;
};

UnrunnableFormula MakeUnrunnableFormula() {
  std::vector<std::string> columns;
  std::vector<std::string> row;
  std::vector<Region> regions;
  for (size_t c = 0; c <= vm::Program::kMaxRegisters; ++c) {
    columns.push_back("c" + std::to_string(c));
    row.push_back("v");
    regions.push_back(Region::Span(c, 1, 1));
  }
  return {TextTable(columns, {row}),
          TextTable({"t"}, {{std::string(regions.size(), 'v')}}),
          TranslationFormula(regions)};
}

TEST(CoverageHazardTest, FormulaTheVmRefusesIsAStatus) {
  // The path Run() validates branches through: the refusal comes back as
  // the compiler's Status, never as zero matches and never as an abort.
  const UnrunnableFormula u = MakeUnrunnableFormula();
  const Result<Coverage> coverage =
      TranslationSearch::TryComputeCoverage(u.formula, u.source, u.target, 0);
  ASSERT_FALSE(coverage.ok());
  EXPECT_TRUE(coverage.status().IsInvalidArgument()) << coverage.status();
  EXPECT_NE(coverage.status().message().find("vm limit"), std::string::npos);
}

TEST(CoverageDeathTest, FormulaTheVmCannotRunAborts) {
  // Past the VM's register limit a formula does not compile. The callers
  // that return no Status must say so loudly instead of reporting zero
  // matches.
  const UnrunnableFormula u = MakeUnrunnableFormula();
  EXPECT_DEATH(
      TranslationSearch::ComputeCoverage(u.formula, u.source, u.target, 0),
      "vm limit");
  EXPECT_DEATH(EvaluateTranslation(u.formula, u.source, u.target, 0),
               "vm limit");
  EXPECT_DEATH(MergedRule::FromFormula(u.formula)
                   .ComputeCoverage(u.source, u.target, 0),
               "vm limit");
}

}  // namespace
}  // namespace mcsm::core
