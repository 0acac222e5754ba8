#ifndef MCSM_CORE_TARGET_JOIN_H_
#define MCSM_CORE_TARGET_JOIN_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/formula.h"
#include "relational/table.h"
#include "vm/executor.h"

namespace mcsm::core {

/// \brief The target side of coverage: one target column, indexed once, for
/// an equality join with the values a formula produces.
///
/// Every distinct non-empty value gets a dense id, and the rows holding it
/// are grouped by id in ascending order behind one cursor per id. Take()
/// hands out the lowest unused row holding a value, so each target row is
/// used at most once, and the same produced values in the same order always
/// pair with the same rows. NULL and empty cells never match.
class TargetJoin {
 public:
  static constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

  TargetJoin(const relational::Table& target, size_t target_column);

  /// The lowest unused target row holding `value`, now marked used; kNoRow
  /// when `value` is empty or every row holding it is used.
  size_t Take(std::string_view value);

 private:
  /// The slot holding `value`'s id, or the empty slot where it would go.
  size_t Probe(std::string_view value, uint64_t hash) const;

  relational::PinnedColumn values_;  ///< keeps the keys' bytes valid
  /// Open addressing with linear probing, at most half full. A used slot
  /// holds the hash's high 32 bits over id + 1; an empty slot holds 0. Not
  /// a std::unordered_map: its node per distinct value (nearly every target
  /// row) cost coverage about twice the time of this table, enough to lose
  /// most of the saving on citeseer (EXPERIMENTS.md, "Coverage join").
  std::vector<uint64_t> slots_;
  std::vector<std::string_view> keys_;  ///< id -> value
  std::vector<uint32_t> rows_;   ///< target rows grouped by id, ascending
  std::vector<uint32_t> start_;  ///< id -> its group's first slot; ids+1
  std::vector<uint32_t> next_;   ///< id -> its next unused slot
};

/// Translates every row of `source` with `formula`, compiled for the VM
/// (vm::Translate at one thread, no budget): the per-row executor behind
/// every coverage count. An incomplete or empty formula translates no row,
/// as it produces nothing coverage can use. A formula the VM refuses (over
/// more than vm::Program::kMaxRegisters distinct columns, or with a span
/// outside the u32 range) returns the compiler's Status, and a source past
/// the u32 row range the executor's: reporting zero coverage for a formula
/// that translates rows would be silently wrong.
Result<vm::TranslateResult> TranslateForCoverage(
    const TranslationFormula& formula, const relational::Table& source);

}  // namespace mcsm::core

#endif  // MCSM_CORE_TARGET_JOIN_H_
