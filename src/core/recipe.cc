#include "core/recipe.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace mcsm::core {

Result<FixedCoverage> FixedCoverage::FromCapture(
    size_t target_length, const std::vector<relational::Span>& spans,
    std::vector<Region> fixed_regions) {
  if (spans.size() != fixed_regions.size()) {
    return Status::InvalidArgument(
        StrFormat("capture has %zu spans but formula has %zu fixed regions",
                  spans.size(), fixed_regions.size()));
  }
  FixedCoverage f;
  f.cover.assign(target_length, -1);
  f.regions = std::move(fixed_regions);
  for (size_t k = 0; k < spans.size(); ++k) {
    if (spans[k].end() > target_length) {
      return Status::OutOfRange("capture span exceeds target length");
    }
    for (size_t i = spans[k].start; i < spans[k].end(); ++i) {
      f.cover[i] = static_cast<int>(k);
    }
  }
  return f;
}

Result<std::vector<TranslationFormula>> BuildFormulasFromRecipe(
    std::string_view target, const FixedCoverage& fixed,
    const text::RecipeAlignment& alignment, size_t key_column,
    size_t key_length, size_t max_variants, bool sized_unknowns) {
  const size_t len = target.size();
  // Coverage/target mismatches arise from malformed intermediate data (a
  // recipe built against a different instance); degrade, don't abort.
  if (fixed.cover.size() != len) {
    return Status::InvalidArgument(
        StrFormat("fixed coverage built for length %zu but target has "
                  "length %zu",
                  fixed.cover.size(), len));
  }
  for (int c : fixed.cover) {
    if (c >= 0 && static_cast<size_t>(c) >= fixed.regions.size()) {
      return Status::InvalidArgument(
          StrFormat("fixed coverage entry %d exceeds %zu regions", c,
                    fixed.regions.size()));
    }
  }

  // run_at[i] = index of the matched run starting at target position i.
  std::vector<int> run_at(len, -1);
  for (size_t r = 0; r < alignment.runs.size(); ++r) {
    if (alignment.runs[r].target_start < len) {
      run_at[alignment.runs[r].target_start] = static_cast<int>(r);
    }
  }

  // Build the region chain; remember which chain entries are forkable
  // (end-of-string clones, Algorithm 4's "clone region" branch).
  struct ChainEntry {
    Region region;
    bool forkable = false;
  };
  std::vector<ChainEntry> chain;
  size_t i = 0;
  while (i < len) {
    if (fixed.cover[i] >= 0) {
      int idx = fixed.cover[i];
      MCSM_DCHECK_BOUNDS(static_cast<size_t>(idx), fixed.regions.size());
      chain.push_back({fixed.regions[static_cast<size_t>(idx)], false});
      while (i < len && fixed.cover[i] == idx) ++i;
      continue;
    }
    if (run_at[i] >= 0) {
      const text::MatchedRun& run =
          alignment.runs[static_cast<size_t>(run_at[i])];
      MCSM_DCHECK(run.length > 0);
      MCSM_DCHECK(run.source_start + run.length <= key_length)
          << "matched run [" << run.source_start << ", "
          << run.source_start + run.length << ") exceeds key length "
          << key_length;
      Region span = Region::Span(key_column, run.source_start + 1,
                                 run.source_start + run.length);
      bool forkable = (run.source_start + run.length == key_length);
      chain.push_back({span, forkable});
      i += run.length;
      continue;
    }
    size_t gap_start = i;
    while (i < len && fixed.cover[i] < 0 && run_at[i] < 0) ++i;
    chain.push_back({sized_unknowns ? Region::SizedUnknown(i - gap_start)
                                    : Region::Unknown(),
                     false});
  }

  // Expand fork combinations. Each forkable span yields the fixed version and
  // the to_end clone; all combinations are counted (Table 5's "or" rows).
  std::vector<size_t> fork_positions;
  for (size_t k = 0; k < chain.size(); ++k) {
    if (chain[k].forkable) fork_positions.push_back(k);
  }
  // Cap the expansion so a pathological recipe cannot explode.
  size_t usable_forks = fork_positions.size();
  while (usable_forks > 0 && (size_t{1} << usable_forks) > max_variants) {
    --usable_forks;
  }

  std::vector<TranslationFormula> out;
  const size_t combos = size_t{1} << usable_forks;
  for (size_t mask = 0; mask < combos; ++mask) {
    std::vector<Region> regions;
    regions.reserve(chain.size());
    for (size_t k = 0; k < chain.size(); ++k) {
      Region r = chain[k].region;
      for (size_t f = 0; f < usable_forks; ++f) {
        if (fork_positions[f] == k && ((mask >> f) & 1) != 0) {
          r = Region::SpanToEnd(r.column, r.start);
        }
      }
      regions.push_back(std::move(r));
    }
    out.emplace_back(std::move(regions));
  }
  if (out.size() < 2) return out;
  // Variants are ordered by rendering, each rendered once. Normalization can
  // make variants collide (e.g. when a span has width 1 at the end), and the
  // order puts collisions side by side; deduplicate.
  std::vector<std::pair<std::string, TranslationFormula>> rendered;
  rendered.reserve(out.size());
  for (TranslationFormula& f : out) {
    std::string text = f.ToString();
    rendered.emplace_back(std::move(text), std::move(f));
  }
  std::sort(rendered.begin(), rendered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.clear();
  for (auto& [text, f] : rendered) {
    if (out.empty() || !(out.back() == f)) out.push_back(std::move(f));
  }
  return out;
}

}  // namespace mcsm::core
