#ifndef MCSM_CORE_PATTERN_CANDIDATES_H_
#define MCSM_CORE_PATTERN_CANDIDATES_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/formula.h"
#include "core/recipe.h"
#include "relational/column_index.h"
#include "relational/table.h"

namespace mcsm::core {

/// One target instance kept to vote in a refinement slot.
struct PatternCandidate {
  uint32_t row;
  /// TextView, not string_view: each candidate carries the pin that keeps
  /// its target bytes valid for the rest of the slot.
  relational::TextView target;
  FixedCoverage fixed;
  std::vector<bool> free_mask;  ///< fixed.FreeMask()
};

struct PatternCandidates {
  /// Retrieved rows whose capture pairs with the fixed regions: the count
  /// before the cap (the `pattern_candidates` trace value).
  size_t captured = 0;
  /// At most `max_rows` of them, in retrieval order.
  std::vector<PatternCandidate> kept;
};

/// \brief Selects the target instances that vote for one sampled source row
/// (Algorithms 5-6; DESIGN.md §5 item 8).
///
/// `matches` is the pattern retrieval: each matched row with its value and
/// the pattern's literal spans in it, as verification captured them; nothing
/// is read or matched again. The captures pair 1:1 with `fixed_regions` when
/// the pattern has one literal per fixed region, and then all of them do;
/// otherwise none does and nothing is kept. When more than `max_rows`
/// captures pair, Algorithm 6's "and contains q-grams of key" is realized as
/// row-level record linkage: the kept captures are those sharing the most
/// q-grams between their free positions and the whole source row, summed
/// over `keys` (the row's value in every candidate column), ties going to
/// the earlier retrieved row. The truly linked target instance shares
/// several fields and rises to the top, while one that matches one field by
/// coincidence ranks below it: the "primitive form of record linkage" of
/// Section 2. Captures are ranked from their spans alone; FixedCoverage and
/// the free mask are built only for the kept ones.
PatternCandidates SelectPatternCandidates(
    const relational::PatternMatches& matches,
    const std::vector<Region>& fixed_regions,
    const std::vector<std::string_view>& keys, size_t q, size_t max_rows);

}  // namespace mcsm::core

#endif  // MCSM_CORE_PATTERN_CANDIDATES_H_
