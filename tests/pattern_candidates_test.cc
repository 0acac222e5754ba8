// Differential test of refinement's candidate selection against a reference
// model: the materialize-everything ranking that SelectPatternCandidates
// replaced. The reference builds a FixedCoverage and a free mask for every
// capture, scores each with one SharedQGramsMasked per key, stable-sorts by
// score and keeps the first max_rows in retrieval order. Over seeded random
// rows, targets and patterns, the production selection must keep the same
// captures, in the same order, with the same coverage, masks and sharing
// bits.

#include "core/pattern_candidates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "text/qgram.h"

namespace mcsm::core {
namespace {

struct RefCandidate {
  uint32_t row;
  std::string target;
  FixedCoverage fixed;
  std::vector<bool> free_mask;
};

struct RefSelection {
  size_t captured = 0;
  std::vector<RefCandidate> kept;
  /// Sorted scores, so a test can tell whether the cap split a tie.
  std::vector<long long> ranked_scores;
};

RefSelection ReferenceSelect(const relational::SearchPattern& pattern,
                             const relational::Table& target, size_t column,
                             const std::vector<uint32_t>& rows,
                             const std::vector<Region>& fixed_regions,
                             const std::vector<std::string_view>& keys,
                             size_t q, size_t max_rows) {
  std::vector<RefCandidate> candidates;
  for (uint32_t row : rows) {
    std::string text(target.TextAt(row, column).view());
    auto spans = pattern.CaptureLiterals(text);
    if (!spans.has_value()) continue;
    auto fixed = FixedCoverage::FromCapture(text.size(), *spans, fixed_regions);
    if (!fixed.ok()) continue;
    RefCandidate cand{row, text, std::move(fixed).value(), {}};
    cand.free_mask = cand.fixed.FreeMask();
    candidates.push_back(std::move(cand));
  }
  RefSelection out;
  out.captured = candidates.size();
  if (candidates.size() > max_rows) {
    std::vector<long long> similarity(candidates.size(), 0);
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      for (std::string_view key : keys) {
        if (key.size() >= q) {
          similarity[ci] += text::SharedQGramsMasked(
              key, candidates[ci].target, candidates[ci].free_mask, q);
        }
      }
    }
    std::vector<size_t> order(candidates.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return similarity[a] > similarity[b];
    });
    for (size_t i : order) out.ranked_scores.push_back(similarity[i]);
    order.resize(max_rows);
    std::sort(order.begin(), order.end());
    std::vector<RefCandidate> kept;
    for (size_t i : order) kept.push_back(std::move(candidates[i]));
    candidates = std::move(kept);
  }
  out.kept = std::move(candidates);
  return out;
}

std::vector<bool> SharingBits(const std::string_view target,
                              const std::vector<bool>& free_mask,
                              const std::vector<std::string_view>& keys,
                              size_t q) {
  std::vector<bool> bits;
  for (std::string_view key : keys) {
    bits.push_back(text::SharedQGramsMasked(key, target, free_mask, q) > 0);
  }
  return bits;
}

std::string RandomString(Rng& rng, std::string_view alphabet, size_t max_len) {
  std::string s;
  const size_t len = rng.Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.Uniform(alphabet.size())]);
  }
  return s;
}

/// A random pattern of 1-3 literals between wildcards (some sized, some
/// requiring a character), plus a generator of texts that match it.
struct RandomPattern {
  std::vector<relational::SearchPattern::Segment> segments;
  size_t literals = 0;

  std::string MatchingText(Rng& rng, std::string_view alphabet) const {
    std::string s;
    for (const auto& seg : segments) {
      if (!seg.is_wildcard) {
        s += seg.literal;
      } else if (seg.exact_len > 0) {
        for (size_t i = 0; i < seg.exact_len; ++i) {
          s.push_back(alphabet[rng.Uniform(alphabet.size())]);
        }
      } else {
        std::string fill = RandomString(rng, alphabet, 5);
        if (seg.min_one && fill.empty()) fill = "a";
        s += fill;
      }
    }
    return s;
  }
};

RandomPattern MakePattern(Rng& rng, std::string_view alphabet) {
  RandomPattern p;
  const size_t literals = 1 + rng.Uniform(3);
  auto wildcard = [&]() {
    relational::SearchPattern::Segment seg{true, false, 0, ""};
    const size_t kind = rng.Uniform(4);
    if (kind == 1) seg.min_one = true;
    if (kind == 2) seg.exact_len = 1 + rng.Uniform(3);
    return seg;
  };
  if (rng.Uniform(2) == 0) p.segments.push_back(wildcard());
  for (size_t i = 0; i < literals; ++i) {
    std::string lit = RandomString(rng, alphabet, 3);
    if (lit.empty()) lit = "b";
    p.segments.push_back({false, false, 0, lit});
    ++p.literals;
    if (i + 1 < literals || rng.Uniform(2) == 0) {
      p.segments.push_back(wildcard());
    }
  }
  return p;
}

/// The retrieval's hand-off for `rows` of column 0: each matching row with
/// its value and the pattern's capture on it.
relational::PatternMatches Retrieved(const relational::SearchPattern& pattern,
                                     const relational::Table& table,
                                     const std::vector<uint32_t>& rows) {
  relational::PatternMatches matches(pattern);
  relational::TextCursor cursor(table.Column(0));
  for (uint32_t row : rows) matches.Capture(pattern, row, &cursor);
  return matches;
}

struct Tally {
  size_t trials = 0;
  size_t below_cap = 0;
  size_t at_cap = 0;
  size_t above_cap = 0;
  size_t tie_at_cap = 0;
  size_t span_count_failures = 0;
};

void CheckOne(const relational::SearchPattern& pattern,
              const relational::Table& table, const std::vector<uint32_t>& rows,
              const std::vector<Region>& fixed_regions,
              const std::vector<std::string_view>& keys, size_t q,
              size_t max_rows, Tally* tally) {
  RefSelection want = ReferenceSelect(pattern, table, 0, rows, fixed_regions,
                                      keys, q, max_rows);
  PatternCandidates got = SelectPatternCandidates(
      Retrieved(pattern, table, rows), fixed_regions, keys, q, max_rows);
  ++tally->trials;
  if (want.captured < max_rows) ++tally->below_cap;
  if (want.captured == max_rows) ++tally->at_cap;
  if (want.captured > max_rows) {
    ++tally->above_cap;
    if (max_rows > 0 &&
        want.ranked_scores[max_rows - 1] == want.ranked_scores[max_rows]) {
      ++tally->tie_at_cap;
    }
  }
  ASSERT_EQ(got.captured, want.captured);
  ASSERT_EQ(got.kept.size(), want.kept.size());
  for (size_t i = 0; i < want.kept.size(); ++i) {
    const PatternCandidate& g = got.kept[i];
    const RefCandidate& w = want.kept[i];
    ASSERT_EQ(g.row, w.row) << "kept candidate " << i;
    EXPECT_EQ(g.target.view(), w.target);
    EXPECT_EQ(g.fixed.cover, w.fixed.cover);
    EXPECT_EQ(g.fixed.regions, w.fixed.regions);
    EXPECT_EQ(g.free_mask, w.free_mask);
    EXPECT_EQ(SharingBits(g.target.view(), g.free_mask, keys, q),
              SharingBits(w.target, w.free_mask, keys, q));
  }
}

TEST(CandidateSelectionTest, MatchesMaterializeEverythingReference) {
  Rng rng(22);
  Tally tally;
  const std::string_view alphabets[] = {"ab", "abc-", "abcdefgh"};
  for (int trial = 0; trial < 400; ++trial) {
    const size_t q = 1 + static_cast<size_t>(trial) % 5;
    const std::string_view alphabet = alphabets[rng.Uniform(3)];
    const RandomPattern shape = MakePattern(rng, alphabet);
    const relational::SearchPattern pattern(shape.segments);

    relational::Table table = relational::Table::WithTextColumns({"t"});
    const size_t n = rng.Uniform(80);
    for (size_t i = 0; i < n; ++i) {
      const std::string text = rng.Uniform(3) == 0
                                   ? RandomString(rng, alphabet, 10)
                                   : shape.MatchingText(rng, alphabet);
      ASSERT_TRUE(table.AppendTextRow({text}).ok());
    }
    // Retrieved rows: ascending, as the index returns them; sometimes a
    // subset, as a budget-cut retrieval would.
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < n; ++r) {
      if (rng.Uniform(5) != 0) rows.push_back(r);
    }

    std::vector<std::string> key_store;
    const size_t num_keys = 1 + rng.Uniform(6);
    for (size_t k = 0; k < num_keys; ++k) {
      key_store.push_back(RandomString(rng, alphabet, 9));
    }
    std::vector<std::string_view> keys(key_store.begin(), key_store.end());

    // Usually one fixed region per literal; sometimes one too many or too
    // few, so that every capture fails the span-count check.
    size_t regions = shape.literals;
    if (rng.Uniform(8) == 0) {
      regions = rng.Uniform(2) == 0 ? regions + 1 : regions - 1;
      ++tally.span_count_failures;
    }
    std::vector<Region> fixed_regions;
    for (size_t i = 0; i < regions; ++i) {
      fixed_regions.push_back(i % 2 == 0 ? Region::Literal("x")
                                         : Region::SpanToEnd(i, 1));
    }

    // Caps around the capture count: below, at and above it.
    const size_t captured =
        ReferenceSelect(pattern, table, 0, rows, fixed_regions, keys, q,
                        rows.size())
            .captured;
    for (size_t max_rows :
         {size_t{0}, size_t{1}, captured / 2, captured > 0 ? captured - 1 : 0,
          captured, captured + 1, size_t{32}}) {
      CheckOne(pattern, table, rows, fixed_regions, keys, q, max_rows, &tally);
      if (HasFatalFailure()) {
        FAIL() << "trial " << trial << " q=" << q << " max_rows=" << max_rows
               << " pattern=" << pattern.ToLikeString();
      }
    }
  }
  // The cases the selection must get right were all exercised.
  EXPECT_GT(tally.below_cap, 100u);
  EXPECT_GT(tally.at_cap, 100u);
  EXPECT_GT(tally.above_cap, 100u);
  EXPECT_GT(tally.tie_at_cap, 50u);
  EXPECT_GT(tally.span_count_failures, 20u);
}

TEST(CandidateSelectionTest, KeepsTheRowSharingMostWithTheWholeRow) {
  relational::Table table = relational::Table::WithTextColumns({"t"});
  ASSERT_TRUE(table.AppendTextRow({"jsmith"}).ok());
  ASSERT_TRUE(table.AppendTextRow({"jdoe"}).ok());
  const relational::SearchPattern pattern =
      relational::SearchPattern::FromLikeString("j%");
  const std::vector<Region> fixed = {Region::Span(0, 1, 1)};
  const std::vector<std::string_view> keys = {"john", "smith"};

  PatternCandidates none = SelectPatternCandidates(
      Retrieved(pattern, table, {}), fixed, keys, 2, 32);
  EXPECT_EQ(none.captured, 0u);
  EXPECT_TRUE(none.kept.empty());

  // Over the cap of 1, the row sharing "smith"'s grams wins.
  PatternCandidates one = SelectPatternCandidates(
      Retrieved(pattern, table, {0, 1}), fixed, keys, 2, 1);
  EXPECT_EQ(one.captured, 2u);
  ASSERT_EQ(one.kept.size(), 1u);
  EXPECT_EQ(one.kept[0].row, 0u);
  EXPECT_EQ(one.kept[0].fixed.cover, (std::vector<int>{0, -1, -1, -1, -1, -1}));
  EXPECT_EQ(one.kept[0].free_mask,
            (std::vector<bool>{false, true, true, true, true, true}));
}

}  // namespace
}  // namespace mcsm::core
