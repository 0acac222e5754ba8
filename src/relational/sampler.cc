#include "relational/sampler.h"

#include <algorithm>
#include <cmath>

namespace mcsm::relational {

size_t SampleSize(size_t population, double fraction, size_t min_count) {
  if (population == 0) return 0;
  size_t t = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(population)));
  t = std::max(t, min_count);
  return std::min(t, population);
}

std::vector<size_t> EquidistantIndices(size_t population, size_t t) {
  std::vector<size_t> out;
  if (population == 0 || t == 0) return out;
  t = std::min(t, population);
  out.reserve(t);
  for (size_t j = 0; j < t; ++j) {
    // Index j * population / t is the paper's "tuple j/fraction" position.
    out.push_back(j * population / t);
  }
  return out;
}

std::vector<std::string> SampleDistinctValues(const ColumnSummary& summary,
                                              double fraction,
                                              size_t min_count,
                                              RunBudget* budget) {
  const auto& distinct = summary.sorted_distinct();
  size_t t = SampleSize(distinct.size(), fraction, min_count);
  std::vector<std::string> out;
  out.reserve(t);
  for (size_t idx : EquidistantIndices(distinct.size(), t)) {
    if (budget != nullptr && budget->Exhausted()) break;
    out.push_back(distinct[idx]);
  }
  return out;
}

std::vector<size_t> SampleRows(size_t num_rows, size_t t, RunBudget* budget) {
  if (budget != nullptr && budget->Exhausted()) return {};
  return EquidistantIndices(num_rows, t);
}

}  // namespace mcsm::relational
