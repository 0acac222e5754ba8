// Figure 2: column scores vs absolute rows sampled, on the large merged-names
// dataset (paper: 700,000 rows of first||last against first, last, random
// text and addresses). The paper's claim: even a few hundred sampled rows
// rank the columns correctly (last > first >> noise).
#include "bench/bench_util.h"
#include "core/column_scorer.h"
#include "relational/column_index.h"
#include "relational/column_summary.h"
#include "relational/sampler.h"

using namespace mcsm;

int main() {
  bench::Banner("Figure 2", "column score vs rows sampled (merged names)");
  datagen::MergedNamesOptions options;
  options.rows = bench::ScaledRows(700000, 0.5);
  options.distinct_names =
      std::max<size_t>(1000, options.rows / 10);  // paper: ~70k distinct
  datagen::Dataset data = datagen::MakeMergedNamesDataset(options);

  relational::ColumnIndex::Options idx_options;
  relational::ColumnIndex target_index(data.target, 0, idx_options);

  // Figure 2 uses first, last, random text and addresses.
  std::vector<std::string> wanted = {"first", "last", "text", "addr"};
  std::vector<size_t> columns;
  // Sampling reads only the sorted distinct values of a source column.
  std::vector<relational::ColumnSummary> summaries;
  for (const auto& name : wanted) {
    columns.push_back(*data.source.schema().FindColumn(name));
  }
  for (size_t c : columns) summaries.emplace_back(data.source, c);

  std::printf("%-10s", "rows");
  for (const auto& name : wanted) std::printf("%14s", name.c_str());
  std::printf("\n");
  for (size_t rows_sampled : {100, 250, 500, 750, 1000, 1500, 2000, 2500}) {
    std::printf("%-10zu", rows_sampled);
    for (size_t i = 0; i < columns.size(); ++i) {
      const auto& distinct = summaries[i].sorted_distinct();
      std::vector<std::string> keys;
      for (size_t idx :
           relational::EquidistantIndices(distinct.size(), rows_sampled)) {
        keys.push_back(distinct[idx]);
      }
      double score =
          core::ColumnScorer::ScoreKeys(keys, target_index, {});
      std::printf("%14.3g", score);
    }
    std::printf("\n");
  }
  std::printf("\n# paper shape: last > first >> addr > text at every sample "
              "size,\n# stable from a few hundred rows on (paper Fig. 2).\n");
  return 0;
}
