#include "core/report.h"

#include <string_view>

#include "common/string_util.h"
#include "core/target_join.h"

namespace mcsm::core {

TranslationReport EvaluateTranslation(const TranslationFormula& formula,
                                      const relational::Table& source,
                                      const relational::Table& target,
                                      size_t target_column) {
  TranslationReport report;
  report.source_rows = source.num_rows();
  report.target_rows = target.num_rows();
  Result<vm::TranslateResult> translated = TranslateForCoverage(formula, source);
  MCSM_CHECK_OK(translated.status())
      << " evaluating " << formula.ToString(source.schema());
  TargetJoin join(target, target_column);
  for (size_t i = 0; i < translated->output_rows(); ++i) {
    const std::string_view produced = translated->value(i);
    if (produced.empty()) continue;  // counted as unsatisfiable below
    if (join.Take(produced) == TargetJoin::kNoRow) {
      ++report.produced_unmatched;
    } else {
      ++report.covered;
    }
  }
  // Rows the VM did not cover, and rows that produced an empty value.
  report.unsatisfiable =
      report.source_rows - report.covered - report.produced_unmatched;
  report.target_unexplained = report.target_rows - report.covered;
  return report;
}

std::string TranslationReport::ToString() const {
  std::string out;
  out += StrFormat("source rows          %zu\n", source_rows);
  out += StrFormat("target rows          %zu\n", target_rows);
  out += StrFormat("covered              %zu (%.1f%% of target)\n", covered,
                   100.0 * CoverageFraction());
  out += StrFormat("unsatisfiable        %zu (excluded by the SQL WHERE)\n",
                   unsatisfiable);
  out += StrFormat("produced, unmatched  %zu (precision %.1f%%)\n",
                   produced_unmatched, 100.0 * Precision());
  out += StrFormat("target unexplained   %zu\n", target_unexplained);
  return out;
}

}  // namespace mcsm::core
