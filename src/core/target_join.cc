#include "core/target_join.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/check.h"
#include "vm/compiler.h"

namespace mcsm::core {

namespace {

uint64_t HashValue(std::string_view value) {
  return std::hash<std::string_view>{}(value);
}

uint32_t SlotId(uint64_t slot) {
  return static_cast<uint32_t>(slot & 0xffffffffu) - 1;
}

}  // namespace

TargetJoin::TargetJoin(const relational::Table& target, size_t target_column)
    : values_(target.Column(target_column)) {
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  const size_t num_rows = values_.size();
  MCSM_CHECK(num_rows < kEmpty);
  slots_.assign(std::bit_ceil(std::max<size_t>(2 * num_rows, 2)), 0);
  // Pass 1: a dense id per distinct value, in first-seen order, and the
  // size of each id's group.
  std::vector<uint32_t> row_ids(num_rows, kEmpty);
  std::vector<uint32_t> counts;
  for (size_t row = 0; row < num_rows; ++row) {
    const std::string_view v = values_.at(row);
    if (v.empty()) continue;
    const uint64_t hash = HashValue(v);
    uint64_t& slot = slots_[Probe(v, hash)];
    if (slot == 0) {
      slot = (hash & ~uint64_t{0xffffffffu}) | (keys_.size() + 1);
      keys_.push_back(v);
      counts.push_back(0);
    }
    row_ids[row] = SlotId(slot);
    ++counts[row_ids[row]];
  }
  // Pass 2: counting sort of the rows by id; rows ascend within a group.
  start_.resize(counts.size() + 1);
  start_[0] = 0;
  for (size_t id = 0; id < counts.size(); ++id) {
    start_[id + 1] = start_[id] + counts[id];
  }
  next_.assign(start_.begin(), start_.end() - 1);
  rows_.resize(start_.back());
  std::vector<uint32_t> fill = next_;
  for (size_t row = 0; row < num_rows; ++row) {
    if (row_ids[row] != kEmpty) {
      rows_[fill[row_ids[row]]++] = static_cast<uint32_t>(row);
    }
  }
}

size_t TargetJoin::Probe(std::string_view value, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if (((slot ^ hash) >> 32) == 0 && keys_[SlotId(slot)] == value) return i;
  }
}

size_t TargetJoin::Take(std::string_view value) {
  if (value.empty()) return kNoRow;
  const uint64_t slot = slots_[Probe(value, HashValue(value))];
  if (slot == 0) return kNoRow;
  const uint32_t id = SlotId(slot);
  if (next_[id] == start_[id + 1]) return kNoRow;
  return rows_[next_[id]++];
}

Result<vm::TranslateResult> TranslateForCoverage(
    const TranslationFormula& formula, const relational::Table& source) {
  if (!formula.IsComplete()) return vm::TranslateResult{};  // so also if empty
  MCSM_ASSIGN_OR_RETURN(const vm::Program program,
                        vm::CompileFormula(formula, source.schema()));
  return vm::Translate(program, source);
}

}  // namespace mcsm::core
