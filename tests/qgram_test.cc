#include "text/qgram.h"

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mcsm::text {
namespace {

TEST(QGramTest, PaperExample) {
  // "the string possible contains five 4-grams, namely poss, ossi, ssib,
  // sibl and ible" (Section 3.2).
  auto grams = QGrams("possible", 4);
  ASSERT_EQ(grams.size(), 5u);
  EXPECT_EQ(grams[0], "poss");
  EXPECT_EQ(grams[1], "ossi");
  EXPECT_EQ(grams[2], "ssib");
  EXPECT_EQ(grams[3], "sibl");
  EXPECT_EQ(grams[4], "ible");
}

TEST(QGramTest, BigramsOfShortStrings) {
  EXPECT_TRUE(QGrams("", 2).empty());
  EXPECT_TRUE(QGrams("a", 2).empty());
  auto grams = QGrams("ab", 2);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(grams[0], "ab");
}

TEST(QGramTest, ZeroQYieldsNothing) {
  EXPECT_TRUE(QGrams("abc", 0).empty());
  EXPECT_EQ(QGramCount(3, 0), 0u);
}

TEST(QGramTest, ProfileCountsMultiplicity) {
  auto profile = QGramProfile("banana", 2);
  EXPECT_EQ(profile["an"], 2);
  EXPECT_EQ(profile["na"], 2);
  EXPECT_EQ(profile["ba"], 1);
  EXPECT_EQ(profile.size(), 3u);
}

TEST(QGramTest, ExcludingSeparatorCharacters) {
  // Section 6.1: "we would not use a search key such as ':4' to search a
  // timestamp column".
  auto grams = QGramsExcluding("11:45:34", 2, ":");
  for (const auto& g : grams) {
    EXPECT_EQ(g.find(':'), std::string::npos) << g;
  }
  EXPECT_EQ(grams.size(), 3u);  // "11", "45", "34"
}

// SharedQGramsMasked with every position of `b` free: the plain
// min-of-multiplicities overlap.
int SharedUnmasked(std::string_view a, std::string_view b, size_t q) {
  return SharedQGramsMasked(a, b, std::vector<bool>(b.size(), true), q);
}

TEST(QGramTest, SharedCountsMinOfMultiplicities) {
  EXPECT_EQ(SharedUnmasked("banana", "anan", 2), 3);  // an: 2/2, na: 2/1
  EXPECT_EQ(SharedUnmasked("abc", "xyz", 2), 0);
  EXPECT_EQ(SharedUnmasked("abc", "abc", 2), 2);
}

TEST(QGramTest, SharedMaskedRespectsMask) {
  // "04" is present in the target but masked out.
  std::vector<bool> mask = {false, false, true, true, true, true};
  EXPECT_EQ(SharedQGramsMasked("04", "040423", mask, 2), 1);  // only pos 2-3
  std::vector<bool> none(6, false);
  EXPECT_EQ(SharedQGramsMasked("04", "040423", none, 2), 0);
  std::vector<bool> all(6, true);
  // min-of-multiplicities: the key holds "04" once, so one shared gram even
  // though the target holds it twice.
  EXPECT_EQ(SharedQGramsMasked("04", "040423", all, 2), 1);
}

TEST(QGramTest, SharedMaskedGramMustBeFullyFree) {
  // A gram straddling a masked boundary does not count.
  std::vector<bool> mask = {true, false, true};
  EXPECT_EQ(SharedQGramsMasked("ab", "abb", mask, 2), 0);
}

TEST(QGramTest, KeyGramOverlapEqualsPerKeyMaskedSum) {
  // The overlap table's one pass over a string's free runs must equal the
  // per-key sum of SharedQGramsMasked, for every q (packed and by view).
  Rng rng(4242);
  const std::string_view alphabet = "abc";
  auto random_string = [&](size_t max_len) {
    std::string s;
    const size_t len = rng.Uniform(max_len + 1);
    for (size_t i = 0; i < len; ++i) s.push_back(alphabet[rng.Uniform(3)]);
    return s;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t q = 1 + static_cast<size_t>(trial) % 6;
    std::vector<std::string> key_store;
    const size_t num_keys = rng.Uniform(7);
    for (size_t k = 0; k < num_keys; ++k) {
      key_store.push_back(random_string(12));
    }
    const std::vector<std::string_view> keys(key_store.begin(),
                                             key_store.end());
    KeyGramOverlap overlap(keys, q);
    // Several strings per table: occurrence counts must not leak between
    // calls.
    for (int probe = 0; probe < 4; ++probe) {
      const std::string b = random_string(20);
      std::vector<bool> mask(b.size());
      for (size_t i = 0; i < b.size(); ++i) mask[i] = rng.Uniform(4) != 0;
      std::vector<std::string_view> free;
      for (size_t i = 0; i < b.size();) {
        if (!mask[i]) {
          ++i;
          continue;
        }
        size_t j = i;
        while (j < b.size() && mask[j]) ++j;
        free.push_back(std::string_view(b).substr(i, j - i));
        i = j;
      }
      long long want = 0;
      for (std::string_view key : keys) {
        want += SharedQGramsMasked(key, b, mask, q);
      }
      ASSERT_EQ(overlap.Shared(free), want)
          << "q=" << q << " b=" << b << " trial " << trial;
    }
  }
}

class QGramCountProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(QGramCountProperty, CountMatchesFormulaOnRandomStrings) {
  const size_t q = GetParam();
  Rng rng(q * 7919);
  for (int trial = 0; trial < 50; ++trial) {
    size_t len = rng.Uniform(30);
    std::string s = rng.RandomString(len, "abcd");
    auto grams = QGrams(s, q);
    EXPECT_EQ(grams.size(), QGramCount(len, q));
    // Profile total equals gram count.
    size_t total = 0;
    for (const auto& [g, c] : QGramProfile(s, q)) total += c;
    EXPECT_EQ(total, grams.size());
    // Every gram has length q and occurs in s.
    for (const auto& g : grams) {
      EXPECT_EQ(g.size(), q);
      EXPECT_NE(s.find(g), std::string::npos);
    }
  }
}

TEST_P(QGramCountProperty, SharedIsSymmetricAndBounded) {
  const size_t q = GetParam();
  Rng rng(q * 104729);
  for (int trial = 0; trial < 50; ++trial) {
    std::string a = rng.RandomString(rng.Uniform(20), "abc");
    std::string b = rng.RandomString(rng.Uniform(20), "abc");
    int shared = SharedUnmasked(a, b, q);
    EXPECT_EQ(shared, SharedUnmasked(b, a, q));
    EXPECT_LE(shared, static_cast<int>(QGramCount(a.size(), q)));
    EXPECT_LE(shared, static_cast<int>(QGramCount(b.size(), q)));
    EXPECT_EQ(SharedUnmasked(a, a, q),
              static_cast<int>(QGramCount(a.size(), q)));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QGramCountProperty,
                         ::testing::Values(1, 2, 3, 4, 7));

TEST(QGramDictionaryDeathTest, InterningAGramOfAnotherLengthAborts) {
  // Frozen lookups pack every gram into q bytes, so a gram of another length
  // is refused at the door rather than silently kept off the fast path.
  for (size_t q : {2u, 3u}) {
    QGramDictionary dict(q);
    EXPECT_EQ(dict.Intern(std::string(q, 'a')), 0u);
    EXPECT_DEATH(dict.Intern(std::string(q + 1, 'b')),
                 "interning a " + std::to_string(q + 1) +
                     "-byte gram into a q=" + std::to_string(q));
    EXPECT_DEATH(dict.Intern("c"), "interning a 1-byte gram");
  }
}

}  // namespace
}  // namespace mcsm::text
