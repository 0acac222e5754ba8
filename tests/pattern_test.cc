#include "relational/pattern.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mcsm::relational {
namespace {

struct LikeCase {
  const char* text;
  const char* pattern;
  bool matches;
};

// Names each case by its values: gtest's default printer dumps the struct's
// raw bytes, pointers included, and ctest takes the test names from it.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' LIKE '" << c.pattern << "' is "
      << (c.matches ? "true" : "false");
}

class LikeMatchCases : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchCases, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.matches)
      << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LikeMatchCases,
    ::testing::Values(
        LikeCase{"abc", "abc", true}, LikeCase{"abc", "a%", true},
        LikeCase{"abc", "%c", true}, LikeCase{"abc", "%b%", true},
        LikeCase{"abc", "%", true}, LikeCase{"", "%", true},
        LikeCase{"abc", "a_c", true}, LikeCase{"abc", "a_b", false},
        LikeCase{"abc", "abcd", false}, LikeCase{"abc", "ab", false},
        LikeCase{"", "", true}, LikeCase{"a", "", false},
        LikeCase{"banana", "%ana", true}, LikeCase{"banana", "b%na", true},
        LikeCase{"banana", "%an%an%", true},
        LikeCase{"banana", "%ann%", false},
        LikeCase{"aab", "%ab", true},  // backtracking over the first 'a'
        LikeCase{"abc", "___", true}, LikeCase{"abc", "____", false},
        LikeCase{"xkerry", "%kerry", true},
        LikeCase{"kerry", "%kerry", true}));

TEST(SearchPatternTest, FromLikeStringRoundTrip) {
  auto p = SearchPattern::FromLikeString("%kerry");
  EXPECT_EQ(p.ToLikeString(), "%kerry");
  EXPECT_TRUE(p.Matches("rhkerry"));
  EXPECT_TRUE(p.Matches("kerry"));
  EXPECT_FALSE(p.Matches("kerr"));
}

TEST(SearchPatternTest, CaptureLeftmostBinding) {
  auto p = SearchPattern::FromLikeString("%an%");
  auto spans = p.CaptureLiterals("banana");
  ASSERT_TRUE(spans.has_value());
  ASSERT_EQ(spans->size(), 1u);
  EXPECT_EQ((*spans)[0], (Span{1, 2}));  // leftmost "an"
}

TEST(SearchPatternTest, CaptureBacktracksWhenNeeded) {
  // Leftmost binding of "ab" at 0 would leave no "b" afterwards; the match
  // must backtrack to the later occurrence.
  auto p = SearchPattern::FromLikeString("%ab%b");
  auto spans = p.CaptureLiterals("xabab");
  ASSERT_TRUE(spans.has_value());
  ASSERT_EQ(spans->size(), 2u);
  EXPECT_EQ((*spans)[0], (Span{1, 2}));
  EXPECT_EQ((*spans)[1], (Span{4, 1}));
}

TEST(SearchPatternTest, AdjacentLiteralsKeepSeparateSpans) {
  // One literal per formula region: "h" then "kerry" must capture as two
  // spans even though they are adjacent in the text.
  SearchPattern p({{true, false, 0, ""},
                   {false, false, 0, "h"},
                   {false, false, 0, "kerry"}});
  auto spans = p.CaptureLiterals("rhkerry");
  ASSERT_TRUE(spans.has_value());
  ASSERT_EQ(spans->size(), 2u);
  EXPECT_EQ((*spans)[0], (Span{1, 1}));
  EXPECT_EQ((*spans)[1], (Span{2, 5}));
}

TEST(SearchPatternTest, MinOneWildcardRejectsEmptyGap) {
  SearchPattern p({{true, true, 0, ""}, {false, false, 0, "kerry"}});
  EXPECT_TRUE(p.Matches("rkerry"));
  EXPECT_FALSE(p.Matches("kerry"));  // gap must be >= 1 char
  EXPECT_EQ(p.ToLikeString(), "_%kerry");
}

TEST(SearchPatternTest, TrailingMinOneWildcard) {
  SearchPattern p({{false, false, 0, "ab"}, {true, true, 0, ""}});
  EXPECT_TRUE(p.Matches("abc"));
  EXPECT_FALSE(p.Matches("ab"));
}

TEST(SearchPatternTest, ExactWidthWildcard) {
  // %{2} on fixed-width targets: exactly two characters.
  SearchPattern p({{false, false, 0, "04"},
                   {true, false, 2, ""},
                   {false, false, 0, "59"}});
  EXPECT_TRUE(p.Matches("042359"));
  EXPECT_FALSE(p.Matches("0459"));
  EXPECT_FALSE(p.Matches("0423x59"));
  EXPECT_EQ(p.ToLikeString(), "04__59");
}

TEST(SearchPatternTest, ExactWidthCaptureMask) {
  SearchPattern p({{false, false, 0, "04"},
                   {true, false, 2, ""},
                   {false, false, 0, "59"}});
  auto mask = p.FreeMask("042359");
  ASSERT_TRUE(mask.has_value());
  std::vector<bool> expected = {false, false, true, true, false, false};
  EXPECT_EQ(*mask, expected);
}

TEST(SearchPatternTest, NormalizationCollapsesWildcards) {
  SearchPattern p({{true, false, 0, ""},
                   {true, true, 0, ""},
                   {false, false, 0, "x"},
                   {false, false, 0, ""},  // empty literal dropped
                   {true, false, 0, ""}});
  EXPECT_EQ(p.segments().size(), 3u);
  EXPECT_TRUE(p.segments()[0].min_one);  // min_one survives the merge
}

TEST(SearchPatternTest, ExactWidthsMerge) {
  SearchPattern p({{true, false, 2, ""}, {true, false, 3, ""}});
  ASSERT_EQ(p.segments().size(), 1u);
  EXPECT_EQ(p.segments()[0].exact_len, 5u);
}

TEST(SearchPatternTest, IsUniversal) {
  EXPECT_TRUE(SearchPattern::FromLikeString("%").IsUniversal());
  EXPECT_FALSE(SearchPattern::FromLikeString("%a%").IsUniversal());
  SearchPattern exact({{true, false, 3, ""}});
  EXPECT_FALSE(exact.IsUniversal());
}

TEST(SearchPatternTest, LongestLiteral) {
  auto p = SearchPattern::FromLikeString("ab%kerry%z");
  EXPECT_EQ(p.LongestLiteral(), "kerry");
  EXPECT_EQ(SearchPattern::FromLikeString("%").LongestLiteral(), "");
}

TEST(SearchPatternTest, FreeMaskCoversLiterals) {
  auto p = SearchPattern::FromLikeString("%kerry");
  auto mask = p.FreeMask("rhkerry");
  ASSERT_TRUE(mask.has_value());
  std::vector<bool> expected = {true, true, false, false, false, false, false};
  EXPECT_EQ(*mask, expected);
  EXPECT_FALSE(p.FreeMask("nomatch").has_value());
}

TEST(SearchPatternTest, MatchAgreesWithLikeMatch) {
  Rng rng(71);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = rng.RandomString(rng.Uniform(8), "ab");
    // Random pattern over {a, b, %}.
    std::string like;
    size_t len = rng.Uniform(6);
    for (size_t i = 0; i < len; ++i) {
      like.push_back("ab%"[rng.Uniform(3)]);
    }
    auto p = SearchPattern::FromLikeString(like);
    EXPECT_EQ(p.Matches(text), LikeMatch(text, like))
        << "'" << text << "' vs '" << like << "'";
  }
}

}  // namespace
}  // namespace mcsm::relational
