#include "core/matcher.h"

#include <algorithm>

namespace mcsm::core {

Result<DiscoveredTranslation> DiscoverTranslation(
    const relational::Table& source, const relational::Table& target,
    size_t target_column, const SearchOptions& options,
    const SqlEmitter::Options& sql_options) {
  if (target_column >= target.num_columns()) {
    return Status::OutOfRange("target column index out of range");
  }
  MCSM_RETURN_IF_ERROR(options.Validate());
  TranslationSearch search(source, target, target_column, options);
  DiscoveredTranslation out;
  MCSM_ASSIGN_OR_RETURN(out.search, search.Run());
  if (out.search.formula.IsComplete()) {
    out.coverage = std::move(out.search.coverage);
    SqlEmitter::Options emit = sql_options;
    if (emit.output_column == "translated") {
      emit.output_column = target.schema().column(target_column).name;
    }
    auto sql = SqlEmitter::ToSql(out.search.formula, source.schema(), emit);
    if (sql.ok()) out.sql = std::move(sql).value();
  }
  return out;
}

Result<std::vector<DiscoveredTranslation>> DiscoverAllTranslations(
    relational::Table source, relational::Table target, size_t target_column,
    const SearchOptions& options, size_t max_formulas,
    size_t min_matched_rows) {
  std::vector<DiscoveredTranslation> out;
  for (size_t round = 0; round < max_formulas; ++round) {
    if (source.num_rows() == 0 || target.num_rows() == 0) break;
    if (TraceSink* trace = options.env.trace) {
      // Match-and-remove round boundary: rows remaining when it starts.
      TraceEvent event;
      event.phase = "matcher";
      event.name = "round";
      event.iteration = static_cast<int64_t>(round);
      event.value = static_cast<double>(source.num_rows());
      event.metrics.emplace_back("target_rows",
                                 static_cast<double>(target.num_rows()));
      trace->Emit(std::move(event));
    }
    auto discovered =
        DiscoverTranslation(source, target, target_column, options);
    if (!discovered.ok()) {
      // First round: the caller's input never produced anything — a real
      // error, not an exhausted match-and-remove loop. Later rounds: NotFound
      // is the expected "no further dominant formula" terminator; anything
      // else (I/O fault, injected failure) still propagates.
      if (round == 0 || !discovered.status().IsNotFound()) {
        return discovered.status();
      }
      break;
    }
    DiscoveredTranslation& d = *discovered;
    if (d.search.truncated) {
      // Anytime semantics: surface the partial round and stop — the tripped
      // budget would trip again immediately on the leftover rows.
      out.push_back(std::move(d));
      break;
    }
    if (!d.formula().IsComplete() ||
        d.coverage.matched_rows() < min_matched_rows) {
      break;  // no further dominant formula
    }
    // Remove matched rows from both tables and continue (Section 4.1).
    std::vector<size_t> source_rows, target_rows;
    source_rows.reserve(d.coverage.matches.size());
    target_rows.reserve(d.coverage.matches.size());
    for (const auto& m : d.coverage.matches) {
      source_rows.push_back(m.source_row);
      target_rows.push_back(m.target_row);
    }
    out.push_back(std::move(d));
    MCSM_RETURN_IF_ERROR(source.RemoveRows(source_rows));
    MCSM_RETURN_IF_ERROR(target.RemoveRows(target_rows));
  }
  return out;
}

std::vector<size_t> BuildLinkage(const TranslationFormula& known_formula,
                                 const relational::Table& source,
                                 const relational::Table& target,
                                 size_t known_target_column) {
  std::vector<size_t> linkage(source.num_rows(), TranslationSearch::kNoLink);
  Coverage coverage = TranslationSearch::ComputeCoverage(
      known_formula, source, target, known_target_column);
  for (const auto& m : coverage.matches) {
    linkage[m.source_row] = m.target_row;
  }
  return linkage;
}

}  // namespace mcsm::core
