#include "text/simd.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relational/column_index.h"
#include "relational/table.h"
#include "reference_index.h"

namespace mcsm::text::simd {
namespace {

/// Every tier available on this machine, scalar first. On a CPU (or build)
/// without vector support this collapses to {kScalar} and the differential
/// tests degenerate to self-comparison — still a valid smoke test.
std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (DetectedLevel() >= Level::kSSE42) levels.push_back(Level::kSSE42);
  if (DetectedLevel() >= Level::kAVX2) levels.push_back(Level::kAVX2);
  return levels;
}

/// Restores the detected dispatch tier when a test scope ends, so a failing
/// differential test cannot leave the process pinned to the scalar path.
struct LevelGuard {
  ~LevelGuard() { SetActiveLevelForTesting(DetectedLevel()); }
};

TEST(SimdDispatchTest, LevelNamesAndClamping) {
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kSSE42), "sse42");
  EXPECT_STREQ(LevelName(Level::kAVX2), "avx2");
  LevelGuard guard;
  SetActiveLevelForTesting(Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  // Requests above the detected tier clamp instead of crashing.
  SetActiveLevelForTesting(Level::kAVX2);
  EXPECT_LE(ActiveLevel(), DetectedLevel());
}

TEST(SimdKernelTest, LookupGrams2MatchesScalarAtEveryLevel) {
  // A 65536-entry direct-address table with recognizable values.
  std::vector<uint32_t> table(65536);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  Rng rng(11);
  LevelGuard guard;
  for (size_t len : {2u, 3u, 8u, 9u, 15u, 16u, 17u, 64u, 251u}) {
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    const size_t windows = s.size() - 1;
    SetActiveLevelForTesting(Level::kScalar);
    std::vector<uint32_t> expected(windows);
    LookupGrams2(s, table.data(), expected.data());
    for (Level level : AvailableLevels()) {
      SetActiveLevelForTesting(level);
      std::vector<uint32_t> got(windows, 0xDEADBEEFu);
      LookupGrams2(s, table.data(), got.data());
      EXPECT_EQ(got, expected) << "len=" << len
                               << " level=" << LevelName(level);
    }
  }
}

TEST(SimdKernelTest, HashBatch32MatchesScalarAtEveryLevel) {
  Rng rng(13);
  LevelGuard guard;
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
    std::vector<uint32_t> packed(n);
    for (auto& p : packed) p = static_cast<uint32_t>(rng.Next64());
    for (uint32_t shift : {1u, 16u, 28u, 31u}) {
      SetActiveLevelForTesting(Level::kScalar);
      std::vector<uint32_t> expected(n);
      HashBatch32(packed.data(), n, shift, expected.data());
      for (Level level : AvailableLevels()) {
        SetActiveLevelForTesting(level);
        std::vector<uint32_t> got(n, 0xDEADBEEFu);
        HashBatch32(packed.data(), n, shift, got.data());
        EXPECT_EQ(got, expected) << "n=" << n << " shift=" << shift
                                 << " level=" << LevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, DeltaDecodeMatchesScalarAtEveryLevel) {
  Rng rng(17);
  LevelGuard guard;
  for (uint32_t width : {1u, 2u, 4u}) {
    for (size_t count : {1u, 2u, 4u, 5u, 8u, 127u, 128u}) {
      std::vector<uint8_t> bytes((count - 1) * width);
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      const uint32_t base = static_cast<uint32_t>(rng.UniformInt(0, 1000));
      SetActiveLevelForTesting(Level::kScalar);
      std::vector<uint32_t> expected(count);
      DeltaDecode(base, bytes.data(), count, width, expected.data());
      for (Level level : AvailableLevels()) {
        SetActiveLevelForTesting(level);
        std::vector<uint32_t> got(count, 0xDEADBEEFu);
        DeltaDecode(base, bytes.data(), count, width, got.data());
        EXPECT_EQ(got, expected) << "width=" << width << " count=" << count
                                 << " level=" << LevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, WidenU32MatchesScalarAtEveryLevel) {
  Rng rng(19);
  LevelGuard guard;
  for (uint32_t width : {1u, 2u, 4u}) {
    for (size_t count : {1u, 3u, 4u, 8u, 128u}) {
      std::vector<uint8_t> bytes(count * width);
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      SetActiveLevelForTesting(Level::kScalar);
      std::vector<uint32_t> expected(count);
      WidenU32(bytes.data(), count, width, expected.data());
      for (Level level : AvailableLevels()) {
        SetActiveLevelForTesting(level);
        std::vector<uint32_t> got(count, 0xDEADBEEFu);
        WidenU32(bytes.data(), count, width, got.data());
        EXPECT_EQ(got, expected) << "width=" << width << " count=" << count
                                 << " level=" << LevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, TfContributionsBitIdenticalAtEveryLevel) {
  Rng rng(23);
  LevelGuard guard;
  for (size_t count : {1u, 3u, 4u, 5u, 8u, 128u}) {
    std::vector<uint32_t> tf(count);
    for (auto& t : tf) t = static_cast<uint32_t>(rng.UniformInt(1, 1000));
    const double key_weight = rng.UniformDouble() * 17.0;
    const double idf = rng.UniformDouble() * 11.0;
    SetActiveLevelForTesting(Level::kScalar);
    std::vector<double> expected(count);
    TfContributions(key_weight, idf, tf.data(), count, expected.data());
    for (Level level : AvailableLevels()) {
      SetActiveLevelForTesting(level);
      std::vector<double> got(count, -1.0);
      TfContributions(key_weight, idf, tf.data(), count, got.data());
      for (size_t i = 0; i < count; ++i) {
        // Bit-for-bit, not almost-equal: the determinism contract.
        EXPECT_EQ(got[i], expected[i])
            << "count=" << count << " i=" << i
            << " level=" << LevelName(level);
      }
    }
  }
}

// --- End-to-end differentials over ColumnIndex -----------------------------

relational::Table SyntheticTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  relational::Table t = relational::Table::WithTextColumns({"name"});
  const std::vector<std::string> first = {"alice",  "bob",   "carol",
                                          "dave",   "erin",  "frank",
                                          "grace",  "heidi", "ivan"};
  const std::vector<std::string> last = {"smith", "jones",  "brown",
                                         "davis", "miller", "wilson"};
  for (size_t i = 0; i < rows; ++i) {
    std::string v = first[rng.Uniform(first.size())];
    v += " ";
    v += last[rng.Uniform(last.size())];
    if (rng.UniformInt(0, 4) == 0) v += std::to_string(rng.UniformInt(0, 99));
    EXPECT_TRUE(t.AppendTextRow({v}).ok());
  }
  return t;
}

relational::ColumnIndex::Options IndexOptions() {
  relational::ColumnIndex::Options o;
  o.build_postings = true;
  return o;
}

void ExpectSameScoredRows(
    const std::vector<relational::ColumnIndex::ScoredRow>& a,
    const std::vector<relational::ColumnIndex::ScoredRow>& b,
    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row) << context << " at " << i;
    // Bit-identical doubles, not approximate: same expression, same order.
    EXPECT_EQ(a[i].score, b[i].score) << context << " at " << i;
  }
}

TEST(SimdDifferentialTest, CompressedMatchesBruteForceReference) {
  relational::Table t = SyntheticTable(2000, 31);
  const std::vector<std::string> keys = {"alice smith", "frank", "smith99",
                                         "zzz", "bo", "erin wilson7"};
  // The default per-key posting budget, and one tight enough to cut most
  // keys' gram lists short.
  for (size_t posting_budget : {size_t{20000}, size_t{700}}) {
    relational::ColumnIndex::Options options = IndexOptions();
    options.posting_budget = posting_budget;
    const relational::ColumnIndex index(t, 0, options);
    const reference::ReferenceIndex ref(t, 0, options.q, posting_budget);
    const std::string budget = " budget=" + std::to_string(posting_budget);
    for (const std::string& key : keys) {
      ExpectSameScoredRows(index.SimilarRows(key, 0.0, 50),
                           ref.SimilarRows(key, 0.0, 50),
                           "SimilarRows " + key + budget);
      ExpectSameScoredRows(index.SimilarRowsByCount(key, 0.0, 50),
                           ref.SimilarRowsByCount(key, 0.0, 50),
                           "SimilarRowsByCount " + key + budget);
      EXPECT_EQ(index.RowsWithAnyQGram(key), ref.RowsWithAnyQGram(key)) << key;
      EXPECT_EQ(index.TotalQGramHits(key), ref.TotalQGramHits(key)) << key;
    }
  }
  const relational::ColumnIndex::Options options = IndexOptions();
  const relational::ColumnIndex index(t, 0, options);
  const reference::ReferenceIndex ref(t, 0, options.q, options.posting_budget);
  // "%a%" has no literal of q characters, so it takes the full-scan path.
  for (const char* like :
       {"%smith%", "alice%", "%son", "%zz%", "gr%ce", "%a%"}) {
    auto pattern = relational::SearchPattern::FromLikeString(like);
    EXPECT_EQ(index.RowsMatchingPattern(pattern),
              ref.RowsMatchingPattern(pattern))
        << like;
  }
  for (const char* gram : {"it", "sm", "a ", "zz"}) {
    const auto got = index.DecodedPostings(gram);
    const auto want = ref.Postings(gram);
    ASSERT_EQ(got.size(), want.size()) << gram;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].row, want[i].row) << gram << " at " << i;
      EXPECT_EQ(got[i].tf, want[i].tf) << gram << " at " << i;
    }
  }
}

// Short values over a four-letter alphabet make most bigram document
// frequencies tie, which pins both the (df, id) term order and where the
// per-key posting budget cuts; "ab" opens every text row, so its idf is 0;
// NULL rows are not text and take no part.
relational::Table TieHeavyTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  relational::Table t = relational::Table::WithTextColumns({"v"});
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Uniform(10) == 0) {
      EXPECT_TRUE(t.AppendRow({relational::Value::MakeNull()}).ok());
    } else {
      EXPECT_TRUE(
          t.AppendTextRow({"ab" + rng.RandomString(rng.Uniform(7), "abcd")})
              .ok());
    }
  }
  return t;
}

TEST(SimdDifferentialTest, TiedFrequenciesAndBudgetsMatchReference) {
  relational::Table t = TieHeavyTable(80, 53);
  Rng rng(59);
  for (size_t posting_budget :
       {size_t{0}, size_t{15}, size_t{60}, size_t{20000}}) {
    relational::ColumnIndex::Options options = IndexOptions();
    options.posting_budget = posting_budget;
    const relational::ColumnIndex index(t, 0, options);
    const reference::ReferenceIndex ref(t, 0, options.q, posting_budget);
    for (int trial = 0; trial < 100; ++trial) {
      const std::string key = rng.RandomString(1 + rng.Uniform(9), "abcde");
      // Whole thresholds equal some count scores exactly.
      const double threshold = static_cast<double>(trial % 4);
      const size_t top_r = 1 + rng.Uniform(40);
      const std::string context = key + " budget=" +
                                  std::to_string(posting_budget) +
                                  " threshold=" + std::to_string(threshold);
      ExpectSameScoredRows(index.SimilarRows(key, threshold, top_r),
                           ref.SimilarRows(key, threshold, top_r),
                           "SimilarRows " + context);
      ExpectSameScoredRows(index.SimilarRowsByCount(key, threshold, top_r),
                           ref.SimilarRowsByCount(key, threshold, top_r),
                           "SimilarRowsByCount " + context);
      EXPECT_EQ(index.RowsWithAnyQGram(key), ref.RowsWithAnyQGram(key)) << key;
      EXPECT_EQ(index.TotalQGramHits(key), ref.TotalQGramHits(key)) << key;
    }
  }
}

TEST(SimdDifferentialTest, ScalarAndVectorRetrievalBitIdentical) {
  relational::Table t = SyntheticTable(1500, 37);
  relational::ColumnIndex idx(t, 0, IndexOptions());

  LevelGuard guard;
  SetActiveLevelForTesting(Level::kScalar);
  const auto expected_sim = idx.SimilarRows("carol jones", 0.0, 100);
  const auto expected_cnt = idx.SimilarRowsByCount("carol jones", 0.0, 100);
  auto pattern = relational::SearchPattern::FromLikeString("%jones%");
  const auto expected_rows = idx.RowsMatchingPattern(pattern);

  for (Level level : AvailableLevels()) {
    SetActiveLevelForTesting(level);
    ExpectSameScoredRows(idx.SimilarRows("carol jones", 0.0, 100),
                         expected_sim,
                         std::string("SimilarRows@") + LevelName(level));
    ExpectSameScoredRows(
        idx.SimilarRowsByCount("carol jones", 0.0, 100), expected_cnt,
        std::string("SimilarRowsByCount@") + LevelName(level));
    EXPECT_EQ(idx.RowsMatchingPattern(pattern), expected_rows)
        << LevelName(level);
  }
}

TEST(SimdDifferentialTest, FrozenDictionaryMatchesHashMapLookups) {
  // A dictionary with a foreign-length gram stays on the hash-map path;
  // a uniform one freezes. Both must answer identically.
  relational::Table t = SyntheticTable(300, 41);
  relational::ColumnIndex idx(t, 0, IndexOptions());
  const text::QGramDictionary& dict = idx.tfidf().dictionary();
  ASSERT_TRUE(dict.frozen());
  Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    std::string gram;
    gram.push_back(static_cast<char>(rng.UniformInt(32, 126)));
    gram.push_back(static_cast<char>(rng.UniformInt(32, 126)));
    // The frozen table and a linear scan over the interned grams must agree.
    const uint32_t id = dict.Find(gram);
    uint32_t expected = text::QGramDictionary::kNoGram;
    for (uint32_t i = 0; i < dict.size(); ++i) {
      if (dict.gram(i) == gram) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(id, expected) << gram;
  }
  // Wrong-length probes on a frozen dictionary are definitively unknown.
  EXPECT_EQ(dict.Find("abc"), text::QGramDictionary::kNoGram);
  EXPECT_EQ(dict.Find("a"), text::QGramDictionary::kNoGram);
}

}  // namespace
}  // namespace mcsm::text::simd
