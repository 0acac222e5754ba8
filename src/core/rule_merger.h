#ifndef MCSM_CORE_RULE_MERGER_H_
#define MCSM_CORE_RULE_MERGER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/formula.h"
#include "core/search.h"

namespace mcsm::core {

/// \brief Section 7 (future work), implemented: merging applicable
/// translation formulas into a single rule with optional regions.
///
/// The paper: "it would be desirable to make use of optional values within
/// translation rules to achieve greater coverage (e.g.: login = first[1-1] +
/// middle[1-1] + last[1-n] would also encompass the rule login = first[1-1]
/// + last[1-n])". A MergedRule is a region sequence where some regions are
/// marked optional; it denotes the set of formulas obtained by keeping or
/// dropping each optional region.
class MergedRule {
 public:
  struct Part {
    Region region;
    bool optional = false;
  };

  /// Wraps a single formula (no optional regions).
  static MergedRule FromFormula(const TranslationFormula& formula);

  /// Merges two complete formulas when one's region sequence is a
  /// subsequence of the other's: the regions missing from the smaller
  /// formula become optional. Returns nullopt when neither formula embeds
  /// into the other (the paper's "rule-merging strategies" would go further;
  /// subsequence embedding covers the login example it gives).
  static std::optional<MergedRule> Merge(const TranslationFormula& a,
                                         const TranslationFormula& b);

  /// Merges this rule with another formula (the formula must embed into the
  /// rule's full expansion or vice versa, region-for-region).
  std::optional<MergedRule> MergedWith(const TranslationFormula& formula) const;

  const std::vector<Part>& parts() const { return parts_; }
  size_t OptionalCount() const;

  /// All formulas the rule denotes (each optional region kept or dropped),
  /// capped at `max_expansions`.
  std::vector<TranslationFormula> Expansions(size_t max_expansions = 64) const;

  /// Renders "first[1-1](middle[1-1])?last[1-n]" style.
  std::string ToString(const relational::Schema& schema) const;
  std::string ToString() const;

  /// Union coverage over all expansions: each source row is translated by
  /// the first expansion (most regions first) that matches an unused target
  /// row — the "greater coverage" the paper is after. Each expansion runs
  /// once on the VM; one TargetJoin serves them all. An expansion the VM
  /// refuses aborts, as in TranslationSearch::ComputeCoverage.
  Coverage ComputeCoverage(const relational::Table& source,
                           const relational::Table& target,
                           size_t target_column) const;

 private:
  std::vector<Part> parts_;
};

/// Greedily merges a set of discovered formulas into a minimal list of
/// rules: repeatedly folds any formula that embeds into (or extends) an
/// existing rule; formulas that merge with nothing stay singleton rules.
std::vector<MergedRule> MergeRules(const std::vector<TranslationFormula>& formulas);

}  // namespace mcsm::core

#endif  // MCSM_CORE_RULE_MERGER_H_
