#include "core/pattern_candidates.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "text/qgram.h"

namespace mcsm::core {

PatternCandidates SelectPatternCandidates(
    const relational::PatternMatches& matches,
    const std::vector<Region>& fixed_regions,
    const std::vector<std::string_view>& keys, size_t q, size_t max_rows) {
  PatternCandidates out;
  // Every capture holds one span per literal segment of the pattern, and a
  // successful capture's spans lie inside its text.
  if (matches.literals() != fixed_regions.size()) return out;
  out.captured = matches.size();
  std::vector<uint32_t> keep(matches.size());
  std::iota(keep.begin(), keep.end(), 0u);
  if (keep.size() > max_rows) {
    text::KeyGramOverlap overlap(keys, q);
    std::vector<long long> scores(matches.size());
    std::vector<std::string_view> free;
    for (size_t c = 0; c < matches.size(); ++c) {
      // The free positions are the gaps between the spans, which a capture
      // reports left to right.
      const std::string_view text = matches.text(c);
      const relational::Span* spans = matches.spans(c);
      free.clear();
      size_t pos = 0;
      for (size_t k = 0; k < matches.literals(); ++k) {
        if (spans[k].start > pos) {
          free.push_back(text.substr(pos, spans[k].start - pos));
        }
        pos = std::max(pos, spans[k].end());
      }
      if (pos < text.size()) free.push_back(text.substr(pos));
      scores[c] = overlap.Shared(free);
    }
    // Score descending, then retrieval order: a strict total order, so the
    // kept set is what a stable sort by score would keep.
    std::nth_element(keep.begin(), keep.begin() + max_rows, keep.end(),
                     [&](uint32_t a, uint32_t b) {
                       return scores[a] != scores[b] ? scores[a] > scores[b]
                                                     : a < b;
                     });
    keep.resize(max_rows);
    std::sort(keep.begin(), keep.end());
  }
  out.kept.reserve(keep.size());
  std::vector<relational::Span> capture;
  for (uint32_t c : keep) {
    const relational::Span* spans = matches.spans(c);
    capture.assign(spans, spans + matches.literals());
    auto fixed = FixedCoverage::FromCapture(matches.text(c).size(), capture,
                                            fixed_regions);
    MCSM_CHECK_OK(fixed.status());
    PatternCandidate candidate{matches.row(c), matches.pinned_text(c),
                               std::move(fixed).value(), {}};
    candidate.free_mask = candidate.fixed.FreeMask();
    out.kept.push_back(std::move(candidate));
  }
  return out;
}

}  // namespace mcsm::core
