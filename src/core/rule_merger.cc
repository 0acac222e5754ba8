#include "core/rule_merger.h"

#include <algorithm>
#include <string_view>

#include "core/target_join.h"

namespace mcsm::core {

namespace {

// True when `small` is a subsequence of `big` (region equality).
// Fills `kept[i]` = true for the positions of `big` used by the embedding
// (greedy leftmost embedding; regions are compared structurally).
bool EmbedsInto(const std::vector<Region>& small, const std::vector<Region>& big,
                std::vector<bool>* kept) {
  kept->assign(big.size(), false);
  size_t j = 0;
  for (const Region& r : small) {
    while (j < big.size() && !(big[j] == r)) ++j;
    if (j == big.size()) return false;
    (*kept)[j] = true;
    ++j;
  }
  return true;
}

}  // namespace

MergedRule MergedRule::FromFormula(const TranslationFormula& formula) {
  MergedRule rule;
  for (const Region& r : formula.regions()) {
    rule.parts_.push_back({r, false});
  }
  return rule;
}

std::optional<MergedRule> MergedRule::Merge(const TranslationFormula& a,
                                            const TranslationFormula& b) {
  if (!a.IsComplete() || !b.IsComplete()) return std::nullopt;
  const auto& ra = a.regions();
  const auto& rb = b.regions();
  const std::vector<Region>* big = &ra;
  const std::vector<Region>* small = &rb;
  if (rb.size() > ra.size()) {
    big = &rb;
    small = &ra;
  }
  std::vector<bool> kept;
  if (!EmbedsInto(*small, *big, &kept)) return std::nullopt;
  MergedRule rule;
  for (size_t i = 0; i < big->size(); ++i) {
    rule.parts_.push_back({(*big)[i], !kept[i]});
  }
  return rule;
}

std::optional<MergedRule> MergedRule::MergedWith(
    const TranslationFormula& formula) const {
  // Merge against the rule's full expansion; re-derive optionality.
  std::vector<Region> full;
  for (const Part& p : parts_) full.push_back(p.region);
  TranslationFormula full_formula(full);
  auto merged = Merge(full_formula, formula);
  if (!merged.has_value()) return std::nullopt;
  // A region optional in either input stays optional.
  MergedRule rule = *merged;
  if (rule.parts_.size() == parts_.size()) {
    for (size_t i = 0; i < parts_.size(); ++i) {
      rule.parts_[i].optional = rule.parts_[i].optional || parts_[i].optional;
    }
  }
  return rule;
}

size_t MergedRule::OptionalCount() const {
  size_t count = 0;
  for (const Part& p : parts_) {
    if (p.optional) ++count;
  }
  return count;
}

std::vector<TranslationFormula> MergedRule::Expansions(
    size_t max_expansions) const {
  std::vector<size_t> optional_positions;
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].optional) optional_positions.push_back(i);
  }
  size_t usable = optional_positions.size();
  while (usable > 0 && (size_t{1} << usable) > max_expansions) --usable;

  std::vector<TranslationFormula> out;
  const size_t combos = size_t{1} << usable;
  for (size_t mask = 0; mask < combos; ++mask) {
    std::vector<Region> regions;
    for (size_t i = 0; i < parts_.size(); ++i) {
      bool drop = false;
      for (size_t k = 0; k < usable; ++k) {
        if (optional_positions[k] == i && ((mask >> k) & 1) != 0) drop = true;
      }
      if (!drop) regions.push_back(parts_[i].region);
    }
    out.emplace_back(std::move(regions));
  }
  // Most-specific first (keeps the union-coverage greedy deterministic).
  std::sort(out.begin(), out.end(),
            [](const TranslationFormula& x, const TranslationFormula& y) {
              if (x.regions().size() != y.regions().size()) {
                return x.regions().size() > y.regions().size();
              }
              return x.ToString() < y.ToString();
            });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string MergedRule::ToString(const relational::Schema& schema) const {
  std::string out;
  for (const Part& p : parts_) {
    TranslationFormula single({p.region});
    std::string rendered = single.ToString(schema);
    if (p.optional) {
      out += "(" + rendered + ")?";
    } else {
      out += rendered;
    }
  }
  return out;
}

std::string MergedRule::ToString() const {
  return ToString(relational::Schema{});
}

Coverage MergedRule::ComputeCoverage(const relational::Table& source,
                                     const relational::Table& target,
                                     size_t target_column) const {
  // One translation per expansion, in expansion order; each keeps a cursor
  // into its covered rows (ascending).
  std::vector<vm::TranslateResult> translations;
  for (const TranslationFormula& f : Expansions()) {
    Result<vm::TranslateResult> translated = TranslateForCoverage(f, source);
    MCSM_CHECK_OK(translated.status())
        << " computing the coverage of " << f.ToString(source.schema());
    translations.push_back(std::move(translated).value());
  }
  std::vector<size_t> cursors(translations.size(), 0);
  Coverage coverage;
  TargetJoin join(target, target_column);
  for (size_t row = 0; row < source.num_rows(); ++row) {
    bool matched = false;
    for (size_t e = 0; e < translations.size(); ++e) {
      const vm::TranslateResult& t = translations[e];
      size_t& cursor = cursors[e];
      if (cursor == t.output_rows() || t.rows[cursor] != row) continue;
      const std::string_view produced = t.value(cursor++);
      if (matched) continue;  // one target row per source row
      const size_t target_row = join.Take(produced);
      if (target_row == TargetJoin::kNoRow) continue;
      coverage.matches.push_back({row, target_row});
      matched = true;
    }
  }
  return coverage;
}

std::vector<MergedRule> MergeRules(
    const std::vector<TranslationFormula>& formulas) {
  std::vector<MergedRule> rules;
  for (const TranslationFormula& f : formulas) {
    bool merged = false;
    for (MergedRule& rule : rules) {
      auto combined = rule.MergedWith(f);
      if (combined.has_value()) {
        rule = std::move(*combined);
        merged = true;
        break;
      }
    }
    if (!merged) rules.push_back(MergedRule::FromFormula(f));
  }
  return rules;
}

}  // namespace mcsm::core
