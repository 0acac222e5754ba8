// Quickstart: discover a multi-column substring translation on the paper's
// Table 1 scenario — unlinked login names vs a table of first/middle/last
// names — then emit the translating SQL and run it: parse it back to its
// formula, compile that for the translation VM, and translate the table.
#include <algorithm>
#include <cstdio>

#include "core/matcher.h"
#include "datagen/datasets.h"
#include "vm/compiler.h"
#include "vm/executor.h"

int main() {
  using namespace mcsm;

  // 1. Generate the Section 4.1 scenario: ~6,000 people and their login
  //    names in random order, with no row linkage between the tables. Noise
  //    columns (random text, timestamps, numbers, addresses) are included so
  //    the column match is not trivial.
  datagen::UserIdOptions data_options;
  data_options.rows = 2000;  // keep the quickstart snappy
  datagen::Dataset data = datagen::MakeUserIdDataset(data_options);
  std::printf("source: %zu rows x %zu columns; target: %zu rows\n",
              data.source.num_rows(), data.source.num_columns(),
              data.target.num_rows());

  // 2. Run the search.
  core::SearchOptions options;  // paper defaults: bi-grams, 10% samples
  auto discovered = core::DiscoverTranslation(data.source, data.target,
                                              data.target_column, options);
  if (!discovered.ok()) {
    std::printf("search failed: %s\n", discovered.status().ToString().c_str());
    return 1;
  }

  const auto& d = *discovered;
  std::printf("formula:  %s\n",
              d.formula().ToString(data.source.schema()).c_str());
  std::printf("coverage: %zu of %zu target rows\n",
              d.coverage.matched_rows(), data.target.num_rows());
  std::printf("sql:      %s\n", d.sql.c_str());

  // 3. Run the emitted SQL: parse it back, compile, translate for real.
  auto query = core::SqlEmitter::FromSql(d.sql, data.source.schema());
  if (!query.ok()) {
    std::printf("sql failed: %s\n", query.status().ToString().c_str());
    return 1;
  }
  auto program = vm::CompileFormula(query->formula, data.source.schema());
  if (!program.ok()) {
    std::printf("compile failed: %s\n", program.status().ToString().c_str());
    return 1;
  }
  auto result = vm::Translate(*program, data.source);
  if (!result.ok()) {
    std::printf("translate failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("translated %zu rows; the first ones:\n",
              result->output_rows());
  for (size_t i = 0; i < std::min<size_t>(5, result->output_rows()); ++i) {
    std::printf("  %.*s\n", static_cast<int>(result->value(i).size()),
                result->value(i).data());
  }
  return 0;
}
