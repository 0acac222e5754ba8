#ifndef MCSM_CORE_REPORT_H_
#define MCSM_CORE_REPORT_H_

#include <string>

#include "core/formula.h"
#include "core/search.h"
#include "relational/table.h"

namespace mcsm::core {

/// \brief Per-row diagnostics of a (complete) translation formula — the
/// evidence a surrounding integration system (IMAP/CUPID/Clio, Section 2)
/// would use to accept, refine or discard a proposed translation.
struct TranslationReport {
  size_t source_rows = 0;
  size_t target_rows = 0;

  /// Source rows whose produced value matched an unused target row.
  size_t covered = 0;
  /// Source rows the formula could not be applied to (NULL operand or value
  /// shorter than a span requires) — rows the emitted SQL's WHERE excludes.
  size_t unsatisfiable = 0;
  /// Source rows that produced a value with no (remaining) target match.
  size_t produced_unmatched = 0;
  /// Target rows no source row explained.
  size_t target_unexplained = 0;

  double CoverageFraction() const {
    return target_rows == 0
               ? 0.0
               : static_cast<double>(covered) / static_cast<double>(target_rows);
  }
  /// Of the rows the formula applies to, the fraction that actually hit a
  /// target row — the formula's precision.
  double Precision() const {
    size_t produced = covered + produced_unmatched;
    return produced == 0
               ? 0.0
               : static_cast<double>(covered) / static_cast<double>(produced);
  }

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

/// Evaluates `formula` against the tables in one VM translation and one
/// TargetJoin pass, the same pairing as TranslationSearch::ComputeCoverage,
/// so `covered` equals its matched rows. An incomplete or empty formula
/// counts every source row as unsatisfiable; a formula the VM refuses
/// aborts, as in ComputeCoverage.
TranslationReport EvaluateTranslation(const TranslationFormula& formula,
                                      const relational::Table& source,
                                      const relational::Table& target,
                                      size_t target_column);

}  // namespace mcsm::core

#endif  // MCSM_CORE_REPORT_H_
