#ifndef MCSM_CORE_VOTE_TALLY_H_
#define MCSM_CORE_VOTE_TALLY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/formula.h"

namespace mcsm::core {

/// One candidate formula with the votes it collected (DESIGN.md §11.5).
struct FormulaVotes {
  /// "c<col>|" + formula.ToString(): the candidate's identity and its place
  /// in the order step 2 and Eq. 5 visit candidates. Keyed by parent column
  /// too, because Eq. 5 normalizes per parent column, so the same rendering
  /// produced by different candidate columns (the unchanged formula,
  /// typically) must not pool its votes.
  std::string key;
  TranslationFormula formula;
  size_t column = 0;          ///< parent column (Eq. 5 normalization)
  size_t count = 0;           ///< raw occurrences (min_support gate)
  double weighted_count = 0;  ///< occurrences weighted by matched chars

  /// formula.ToString(): the key without its column prefix.
  std::string_view rendering() const {
    return std::string_view(key).substr(key.find('|') + 1);
  }
};

/// \brief Votes for candidate formulas, pooled by structure.
///
/// Add() pools votes whose parent column and regions are equal, by hashing
/// the structure rather than rendering it, and remembers the order in which
/// structures first appeared. Merge() folds another tally in, in that
/// tally's first-seen order, so merging per-slot tallies in slot order gives
/// the first-seen order of one serial pass over every vote. Ranked() renders
/// each distinct structure once: structures that render alike pool under
/// the first-seen one's formula (a literal can spell out regions:
/// Literal(`x"%"y`) renders `"x"%"y"`, as Literal("x"), Unknown,
/// Literal("y") does). The result is what a map from rendered key to votes,
/// filled vote by vote, would hold.
///
/// Vote weights are whole numbers (matched characters), so every sum is
/// exact in any order.
class VoteTally {
 public:
  /// Adds one vote of `weight` for `formula` from `column`.
  void Add(size_t column, TranslationFormula formula, double weight);

  /// Folds `other` in, in its first-seen order.
  void Merge(VoteTally&& other);

  /// Distinct structures so far.
  size_t size() const { return entries_.size(); }

  /// The candidates in ascending key order, one per distinct key.
  std::vector<FormulaVotes> Ranked() &&;

 private:
  struct Entry {
    uint64_t hash;
    size_t column;
    TranslationFormula formula;
    size_t count;
    double weighted_count;
  };

  static uint64_t Hash(size_t column, const TranslationFormula& formula);
  /// Pools into the entry equal to (column, formula), or appends one.
  void AddHashed(uint64_t hash, size_t column, TranslationFormula&& formula,
                 double weight, size_t count);
  void Grow();

  std::vector<Entry> entries_;  ///< in first-seen order
  /// Open addressing over entries_: slot = entry index + 1, 0 when empty.
  std::vector<uint32_t> slots_;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_VOTE_TALLY_H_
