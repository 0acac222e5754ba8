#ifndef MCSM_TESTS_COVERAGE_REFERENCE_H_
#define MCSM_TESTS_COVERAGE_REFERENCE_H_

#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/formula.h"
#include "core/report.h"
#include "core/rule_merger.h"
#include "core/search.h"
#include "relational/table.h"

namespace mcsm::reference {

/// \brief Per-row reference models of coverage, the report and merged-rule
/// coverage.
///
/// Each runs TranslationFormula::Apply on every source row and joins through
/// a map from target value to its unused rows, straight from the definition:
/// a produced value takes the lowest unused target row holding it, and NULL,
/// empty and unproduced values never match. No VM, no compiled program and
/// no shared index, so they are the oracles for all of those.

/// Target value -> its unused rows, the lowest at the back. The map's keys
/// view `values`, which must outlive it.
inline std::unordered_map<std::string_view, std::vector<size_t>> RowsByValue(
    const relational::PinnedColumn& values) {
  std::unordered_map<std::string_view, std::vector<size_t>> by_value;
  for (size_t row = values.size(); row > 0; --row) {
    const std::string_view v = values.at(row - 1);
    if (!v.empty()) by_value[v].push_back(row - 1);
  }
  return by_value;
}

/// Takes the lowest unused row holding `produced` from `by_value`; false
/// when none is left.
inline bool TakeRow(
    std::unordered_map<std::string_view, std::vector<size_t>>* by_value,
    std::string_view produced, size_t* target_row) {
  auto it = by_value->find(produced);
  if (it == by_value->end() || it->second.empty()) return false;
  *target_row = it->second.back();
  it->second.pop_back();
  return true;
}

/// Reference for TranslationSearch::ComputeCoverage.
inline core::Coverage Coverage(const core::TranslationFormula& formula,
                               const relational::Table& source,
                               const relational::Table& target,
                               size_t target_column) {
  core::Coverage coverage;
  if (!formula.IsComplete()) return coverage;
  const relational::PinnedColumn values(target.Column(target_column));
  auto by_value = RowsByValue(values);
  for (size_t row = 0; row < source.num_rows(); ++row) {
    const auto produced = formula.Apply(source, row);
    if (!produced.has_value() || produced->empty()) continue;
    size_t target_row = 0;
    if (TakeRow(&by_value, *produced, &target_row)) {
      coverage.matches.push_back({row, target_row});
    }
  }
  return coverage;
}

/// Reference for core::EvaluateTranslation.
inline core::TranslationReport Report(const core::TranslationFormula& formula,
                                      const relational::Table& source,
                                      const relational::Table& target,
                                      size_t target_column) {
  core::TranslationReport report;
  report.source_rows = source.num_rows();
  report.target_rows = target.num_rows();
  const relational::PinnedColumn values(target.Column(target_column));
  auto by_value = RowsByValue(values);
  const bool complete = formula.IsComplete();
  for (size_t row = 0; row < source.num_rows(); ++row) {
    const auto produced =
        complete ? formula.Apply(source, row) : std::nullopt;
    size_t target_row = 0;
    if (!produced.has_value() || produced->empty()) {
      ++report.unsatisfiable;
    } else if (TakeRow(&by_value, *produced, &target_row)) {
      ++report.covered;
    } else {
      ++report.produced_unmatched;
    }
  }
  report.target_unexplained = report.target_rows - report.covered;
  return report;
}

/// Reference for core::MergedRule::ComputeCoverage: each source row takes
/// the first expansion whose produced value still has an unused target row.
inline core::Coverage MergedCoverage(const core::MergedRule& rule,
                                     const relational::Table& source,
                                     const relational::Table& target,
                                     size_t target_column) {
  core::Coverage coverage;
  const auto expansions = rule.Expansions();
  const relational::PinnedColumn values(target.Column(target_column));
  auto by_value = RowsByValue(values);
  for (size_t row = 0; row < source.num_rows(); ++row) {
    for (const core::TranslationFormula& f : expansions) {
      const auto produced =
          f.IsComplete() ? f.Apply(source, row) : std::nullopt;
      if (!produced.has_value() || produced->empty()) continue;
      size_t target_row = 0;
      if (TakeRow(&by_value, *produced, &target_row)) {
        coverage.matches.push_back({row, target_row});
        break;  // one target row per source row
      }
    }
  }
  return coverage;
}

}  // namespace mcsm::reference

#endif  // MCSM_TESTS_COVERAGE_REFERENCE_H_
