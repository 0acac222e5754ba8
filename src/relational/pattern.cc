#include "relational/pattern.h"

#include <algorithm>

#include "common/check.h"

namespace mcsm::relational {

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Classic greedy algorithm with single backtrack point per '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

SearchPattern::SearchPattern(std::vector<Segment> segments) {
  // Normalize: collapse consecutive wildcards and drop empty literals.
  // Adjacent literal segments are deliberately NOT merged: each literal
  // corresponds to one known region of a translation formula, and
  // CaptureLiterals() must report one span per literal segment.
  for (auto& seg : segments) {
    if (seg.is_wildcard) {
      if (segments_.empty() || !segments_.back().is_wildcard) {
        segments_.push_back({true, seg.min_one, seg.exact_len, ""});
      } else {
        Segment& last = segments_.back();
        if (last.exact_len > 0 && seg.exact_len > 0) {
          last.exact_len += seg.exact_len;
        } else {
          last.exact_len = 0;  // mixing exact and free degrades to free
        }
        if (seg.min_one) last.min_one = true;
      }
    } else if (!seg.literal.empty()) {
      segments_.push_back(std::move(seg));
    }
  }
}

SearchPattern SearchPattern::FromLikeString(std::string_view pattern) {
  std::vector<Segment> segments;
  std::string current;
  for (char c : pattern) {
    if (c == '%') {
      if (!current.empty()) {
        segments.push_back({false, false, 0, current});
        current.clear();
      }
      segments.push_back({true, false, 0, ""});
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) segments.push_back({false, false, 0, current});
  return SearchPattern(std::move(segments));
}

bool SearchPattern::IsUniversal() const {
  return segments_.size() == 1 && segments_[0].is_wildcard &&
         segments_[0].exact_len == 0;
}

bool SearchPattern::Matches(std::string_view text) const {
  return TryMatch<false>(text, 0, 0, nullptr);
}

template <bool kRecord>
bool SearchPattern::TryMatch(std::string_view text, size_t pos, size_t seg,
                             std::vector<Span>* spans) const {
  if (seg == segments_.size()) return pos == text.size();
  const Segment& s = segments_[seg];
  if (!s.is_wildcard) {
    const std::string& lit = s.literal;
    // SafeSubstr clamps, so a literal overhanging the end compares unequal
    // instead of reading past it.
    if (SafeSubstr(text, pos, lit.size()) != lit) return false;
    if constexpr (kRecord) spans->push_back({pos, lit.size()});
    if (TryMatch<kRecord>(text, pos + lit.size(), seg + 1, spans)) return true;
    if constexpr (kRecord) spans->pop_back();
    return false;
  }
  // Wildcard with an exact width: consume exactly that many characters.
  if (s.exact_len > 0) {
    if (pos + s.exact_len > text.size()) return false;
    return TryMatch<kRecord>(text, pos + s.exact_len, seg + 1, spans);
  }
  // Free wildcard. A min_one wildcard must consume at least one character.
  if (s.min_one && pos >= text.size()) return false;
  if (seg + 1 == segments_.size()) return true;  // absorbs the rest
  // The next segment is a literal (normalization guarantees alternation):
  // try each occurrence left to right.
  MCSM_DCHECK_BOUNDS(seg + 1, segments_.size());
  MCSM_DCHECK(!segments_[seg + 1].is_wildcard)
      << "normalization must leave no adjacent wildcards";
  const std::string& lit = segments_[seg + 1].literal;
  size_t search_from = pos + (s.min_one ? 1 : 0);
  while (true) {
    size_t found = text.find(lit, search_from);
    if (found == std::string_view::npos) return false;
    if constexpr (kRecord) spans->push_back({found, lit.size()});
    if (TryMatch<kRecord>(text, found + lit.size(), seg + 2, spans)) {
      return true;
    }
    if constexpr (kRecord) spans->pop_back();
    search_from = found + 1;
  }
}

std::optional<std::vector<Span>> SearchPattern::CaptureLiterals(
    std::string_view text) const {
  std::vector<Span> spans;
  if (!CaptureLiterals(text, &spans)) return std::nullopt;
  return spans;
}

bool SearchPattern::CaptureLiterals(std::string_view text,
                                    std::vector<Span>* spans) const {
  // TryMatch pops what it pushed on every failed branch.
  return TryMatch<true>(text, 0, 0, spans);
}

std::optional<std::vector<bool>> SearchPattern::FreeMask(
    std::string_view text) const {
  auto spans = CaptureLiterals(text);
  if (!spans.has_value()) return std::nullopt;
  std::vector<bool> mask(text.size(), true);
  for (const Span& span : *spans) {
    MCSM_DCHECK(span.end() <= text.size());
    for (size_t i = span.start; i < span.end(); ++i) mask[i] = false;
  }
  return mask;
}

std::string_view SearchPattern::LongestLiteral() const {
  std::string_view best;
  for (const auto& seg : segments_) {
    if (!seg.is_wildcard && seg.literal.size() > best.size()) {
      best = seg.literal;
    }
  }
  return best;
}

std::string SearchPattern::ToLikeString() const {
  std::string out;
  for (const auto& seg : segments_) {
    if (seg.is_wildcard) {
      if (seg.exact_len > 0) {
        out.append(seg.exact_len, '_');
      } else {
        if (seg.min_one) out.push_back('_');
        out.push_back('%');
      }
    } else {
      out += seg.literal;
    }
  }
  return out;
}

}  // namespace mcsm::relational
