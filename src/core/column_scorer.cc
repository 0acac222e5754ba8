#include "core/column_scorer.h"

#include <cmath>

#include "relational/sampler.h"

namespace mcsm::core {

double ColumnScorer::ScoreKeys(const std::vector<std::string>& keys,
                               const relational::ColumnIndex& target_index,
                               const Options& options) {
  if (keys.empty()) return 0.0;
  const size_t q = target_index.q();
  double hit_count = 0.0;
  for (size_t j = 0; j < keys.size(); ++j) {
    const auto& key = keys[j];
    if (key.empty()) continue;
    double localc = 0.0;
    if (options.mode == CountMode::kTotalHits) {
      localc = static_cast<double>(
          target_index.TotalQGramHits(key, options.excluded_chars));
    } else {
      localc = static_cast<double>(target_index.RowsWithAnyQGram(key));
    }
    const double contribution = localc / static_cast<double>(key.size());
    if (options.trace != nullptr) {
      // Eq. 1 per-key evidence: HitCount(j) / length(key_j).
      TraceEvent event;
      event.phase = "step1";
      event.name = "key_score";
      event.column = options.trace_column;
      event.sample = static_cast<int64_t>(j);
      event.value = contribution;
      event.detail = key;
      options.trace->Emit(std::move(event));
    }
    hit_count += contribution;
  }
  double average_overlap = hit_count / static_cast<double>(keys.size());
  return std::pow(average_overlap, static_cast<double>(q));
}

double ColumnScorer::ScoreColumn(const relational::ColumnSummary& source,
                                 const relational::ColumnIndex& target_index,
                                 const Options& options) {
  std::vector<std::string> keys = relational::SampleDistinctValues(
      source, options.sample_fraction, options.min_sample);
  return ScoreKeys(keys, target_index, options);
}

}  // namespace mcsm::core
