#ifndef MCSM_RELATIONAL_SAMPLER_H_
#define MCSM_RELATIONAL_SAMPLER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "relational/column_summary.h"

namespace mcsm::relational {

/// \brief Equidistant ("interleaved") sampling, after Gravano et al.: values
/// are taken at equally spaced positions of the ordered sequence, which a
/// database can serve with a single cursor sweep (cheaper than random
/// sampling, empirically as good — paper Section 3.2).

/// Returns ceil(fraction * population), clamped to [min_count, population].
size_t SampleSize(size_t population, double fraction, size_t min_count);

/// Equidistant positions: t indices spread over [0, population).
std::vector<size_t> EquidistantIndices(size_t population, size_t t);

/// Samples `fraction` of the column's *distinct* values equidistantly from
/// its sorted distinct list (distinctness prevents the value distribution
/// from biasing match counts — Section 3.2). At least `min_count` values are
/// returned when the column has that many. When `budget` is given and
/// already exhausted, a truncated (possibly empty) sample is returned.
std::vector<std::string> SampleDistinctValues(const ColumnSummary& summary,
                                              double fraction,
                                              size_t min_count = 1,
                                              RunBudget* budget = nullptr);

/// Samples `t` row indices equidistantly over [0, num_rows). `budget` as in
/// SampleDistinctValues.
std::vector<size_t> SampleRows(size_t num_rows, size_t t,
                               RunBudget* budget = nullptr);

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_SAMPLER_H_
