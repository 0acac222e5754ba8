// Figure 1: effect of sample size on the Step-1 column scores, on the UserID
// dataset (~6,000 rows, name columns + the four standard noise columns).
// The paper's claim: the ranking stabilizes with ~10% of distinct values,
// the name columns (especially last) far outscore every noise column.
#include <vector>

#include "bench/bench_util.h"
#include "core/column_scorer.h"
#include "relational/column_index.h"
#include "relational/column_summary.h"

using namespace mcsm;

int main() {
  bench::Banner("Figure 1", "column score vs sample percentage (UserID, 6k rows)");
  datagen::UserIdOptions options;
  options.rows = bench::ScaledRows(6000, 1.0);
  datagen::Dataset data = datagen::MakeUserIdDataset(options);

  relational::ColumnIndex::Options idx_options;
  relational::ColumnIndex target_index(data.target, data.target_column,
                                       idx_options);
  // Scoring reads only the sorted distinct values of a source column.
  std::vector<relational::ColumnSummary> source_summaries;
  for (size_t c = 0; c < data.source.num_columns(); ++c) {
    source_summaries.emplace_back(data.source, c);
  }

  std::printf("%-8s", "sample%");
  for (size_t c = 0; c < data.source.num_columns(); ++c) {
    std::printf("%12s", data.source.schema().column(c).name.c_str());
  }
  std::printf("\n");

  for (double percent : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
    std::printf("%-8.0f", percent);
    for (size_t c = 0; c < data.source.num_columns(); ++c) {
      core::ColumnScorer::Options scorer;
      scorer.sample_fraction = percent / 100.0;
      double score = core::ColumnScorer::ScoreColumn(source_summaries[c],
                                                     target_index, scorer);
      std::printf("%12.0f", score);
    }
    std::printf("\n");
  }
  std::printf(
      "\n# paper shape: name columns dominate at every sample size; scores\n"
      "# are stable from ~10%% samples on; noise columns stay near zero.\n");
  return 0;
}
