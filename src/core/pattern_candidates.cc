#include "core/pattern_candidates.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "text/qgram.h"

namespace mcsm::core {

PatternCandidates SelectPatternCandidates(
    const relational::SearchPattern& pattern, const relational::Table& target,
    size_t target_column, const std::vector<uint32_t>& rows,
    const std::vector<Region>& fixed_regions,
    const std::vector<std::string_view>& keys, size_t q, size_t max_rows) {
  // Every valid capture's spans, back to back: capture c owns
  // spans[c * fixed_regions.size(), (c + 1) * fixed_regions.size()).
  std::vector<uint32_t> captured_rows;
  std::vector<relational::Span> spans;
  std::vector<long long> scores;
  // At most max_rows retrieved rows need no ranking, so no scores.
  std::optional<text::KeyGramOverlap> overlap;
  if (rows.size() > max_rows) overlap.emplace(keys, q);
  std::vector<std::string_view> free;
  relational::TextCursor cursor(target.Column(target_column));
  for (uint32_t row : rows) {
    const std::string_view text = cursor.Get(row);
    const size_t first = spans.size();
    if (!pattern.CaptureLiterals(text, &spans)) continue;
    bool valid = spans.size() - first == fixed_regions.size();
    for (size_t k = first; valid && k < spans.size(); ++k) {
      valid = spans[k].end() <= text.size();
    }
    if (!valid) {
      spans.resize(first);
      continue;
    }
    captured_rows.push_back(row);
    if (overlap.has_value()) {
      // The free positions are the gaps between the spans, which a capture
      // reports left to right.
      free.clear();
      size_t pos = 0;
      for (size_t k = first; k < spans.size(); ++k) {
        if (spans[k].start > pos) {
          free.push_back(text.substr(pos, spans[k].start - pos));
        }
        pos = std::max(pos, spans[k].end());
      }
      if (pos < text.size()) free.push_back(text.substr(pos));
      scores.push_back(overlap->Shared(free));
    }
  }

  PatternCandidates out;
  out.captured = captured_rows.size();
  std::vector<uint32_t> keep(captured_rows.size());
  std::iota(keep.begin(), keep.end(), 0u);
  if (keep.size() > max_rows) {
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
    relational::TextView text = target.TextAt(captured_rows[c], target_column);
    const auto first = spans.begin() + c * fixed_regions.size();
    capture.assign(first, first + fixed_regions.size());
    auto fixed =
        FixedCoverage::FromCapture(text.size(), capture, fixed_regions);
    // Only a page that failed to load on this second read (an empty view)
    // can fail here; the capture is dropped as if it had never matched.
    if (!fixed.ok()) continue;
    PatternCandidate candidate{captured_rows[c], std::move(text),
                               std::move(fixed).value(), {}};
    candidate.free_mask = candidate.fixed.FreeMask();
    out.kept.push_back(std::move(candidate));
  }
  return out;
}

}  // namespace mcsm::core
