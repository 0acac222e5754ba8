#ifndef MCSM_CORE_MATCHER_H_
#define MCSM_CORE_MATCHER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/column_scorer.h"
#include "core/formula.h"
#include "core/recipe.h"
#include "core/search.h"
#include "core/separator.h"
#include "core/sql_emitter.h"
#include "relational/table.h"

namespace mcsm::core {

/// \brief One discovered translation, packaged with its evidence.
struct DiscoveredTranslation {
  SearchResult search;
  Coverage coverage;   ///< source/target rows the formula links
  std::string sql;     ///< emitted SQL (empty when the formula is incomplete)
  /// Why a complete formula has no `sql`: ToSql's error, for example a
  /// column whose name another column shares ignoring case. Empty otherwise.
  std::string sql_error;

  const TranslationFormula& formula() const { return search.formula; }
  /// True when the run budget tripped and `search.formula` is the best
  /// partial found before the trip (see SearchOptions::budget).
  bool truncated() const { return search.truncated; }
};

/// Runs the full search once and packages formula + coverage + SQL.
/// `sql_options.output_column` defaults to the target column's name.
Result<DiscoveredTranslation> DiscoverTranslation(
    const relational::Table& source, const relational::Table& target,
    size_t target_column, const SearchOptions& options = {},
    const SqlEmitter::Options& sql_options = {});

/// Match-and-remove loop (Section 4.1): discovers a translation, removes the
/// rows it covers from both tables, and repeats — returning the dominant
/// formulas in decreasing coverage order.
///
/// Error contract: a failure on the FIRST round is a real error (bad input or
/// a broken pipeline) and propagates. On LATER rounds a NotFound merely means
/// the leftover rows support no further dominant formula — the expected loop
/// terminator — so the formulas found so far are returned; any other error
/// code still propagates. The loop also stops cleanly after `max_formulas`
/// rounds, when a formula covers fewer than `min_matched_rows` rows, when a
/// table runs out of rows, or when a round comes back truncated (the
/// truncated partial IS appended, so callers can inspect the last element's
/// truncated() — a tripped budget would trip again immediately on the
/// leftovers). Copies of the tables are consumed internally; the originals
/// are untouched.
Result<std::vector<DiscoveredTranslation>> DiscoverAllTranslations(
    relational::Table source, relational::Table target, size_t target_column,
    const SearchOptions& options = {}, size_t max_formulas = 4,
    size_t min_matched_rows = 2);

/// Builds a source-row -> target-row linkage from a known (complete)
/// translation for `known_target_column` — the Section 6.2 prerequisite for
/// constraining the search for a second target column.
std::vector<size_t> BuildLinkage(const TranslationFormula& known_formula,
                                 const relational::Table& source,
                                 const relational::Table& target,
                                 size_t known_target_column);

}  // namespace mcsm::core

#endif  // MCSM_CORE_MATCHER_H_
