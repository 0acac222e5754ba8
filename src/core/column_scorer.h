#ifndef MCSM_CORE_COLUMN_SCORER_H_
#define MCSM_CORE_COLUMN_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "relational/column_index.h"

namespace mcsm::core {

/// \brief Step 1: scoring source columns by q-gram overlap with the target
/// column (Algorithm 2 / Equation 1).
///
/// ScoreCol = ( sum_j HitCount(j) / (t * length(key_j)) )^q over the t keys
/// sampled equidistantly from the column's distinct values. HitCount(j)
/// counts q-gram hits of key_j in the target column; the paper's wording
/// admits two readings, both implemented (see CountMode).
class ColumnScorer {
 public:
  enum class CountMode {
    /// Sum over the key's q-grams (with multiplicity) of the target-column
    /// document frequency. Default: matches the score magnitudes of the
    /// paper's Figures 1-2.
    kTotalHits,
    /// Number of distinct target rows containing at least one q-gram of the
    /// key (requires target postings). Ablation alternative.
    kRowsHit,
  };

  struct Options {
    double sample_fraction = 0.10;
    size_t min_sample = 1;
    CountMode mode = CountMode::kTotalHits;
    /// Characters never used in search q-grams (separator template active).
    std::string excluded_chars;
    /// When set, ScoreKeys emits one "key_score" decision per sampled key
    /// (phase "step1", column = trace_column, sample = key index, value =
    /// the key's normalized hit contribution). Null disables with a single
    /// branch. Not owned.
    TraceSink* trace = nullptr;
    /// The source column the keys were sampled from (trace identity).
    int64_t trace_column = -1;
  };

  /// Scores one source column (its summary provides the distinct values to
  /// sample) against the target column index.
  static double ScoreColumn(const relational::ColumnSummary& source,
                            const relational::ColumnIndex& target_index,
                            const Options& options);

  /// Scores a column from an explicit key sample (used by the sample-size
  /// sweep benchmarks, Figures 1-2).
  static double ScoreKeys(const std::vector<std::string>& keys,
                          const relational::ColumnIndex& target_index,
                          const Options& options);
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_COLUMN_SCORER_H_
