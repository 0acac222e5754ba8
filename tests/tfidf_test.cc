#include "text/tfidf.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "text/qgram.h"

namespace mcsm::text {
namespace {

TEST(TfIdfTest, DocumentFrequencyCountsInstancesOnce) {
  TfIdfModel model({"banana", "bandana", "cherry"}, 2);
  EXPECT_EQ(model.corpus_size(), 3u);
  // "an" occurs twice in banana but the instance counts once.
  EXPECT_EQ(model.DocumentFrequency("an"), 2);
  EXPECT_EQ(model.DocumentFrequency("ch"), 1);
  EXPECT_EQ(model.DocumentFrequency("zz"), 0);
}

TEST(TfIdfTest, IdfFormula) {
  TfIdfModel model({"ab", "ab", "cd", "ef"}, 2);
  // Eq. 3: idf = log2(N / n).
  EXPECT_DOUBLE_EQ(model.Idf("ab"), std::log2(4.0 / 2.0));
  EXPECT_DOUBLE_EQ(model.Idf("cd"), std::log2(4.0 / 1.0));
  EXPECT_DOUBLE_EQ(model.Idf("zz"), 0.0);
}

TEST(TfIdfTest, UbiquitousGramHasZeroWeight) {
  TfIdfModel model({"ax", "ay", "az"}, 1);
  // 'a' appears in every instance: idf = log2(1) = 0, dropped from vectors.
  auto weights = model.WeightVector("ax");
  EXPECT_EQ(weights.count("a"), 0u);
  EXPECT_GT(weights.at("x"), 0.0);
}

TEST(TfIdfTest, WeightUsesTermFrequency) {
  TfIdfModel model({"anan", "xy"}, 2);
  auto weights = model.WeightVector("anan");
  // tf("an") = 2, idf = log2(2/1) = 1.
  EXPECT_DOUBLE_EQ(weights.at("an"), 2.0);
}

TEST(TfIdfTest, ScorePairFavoursRareOverlap) {
  // All instances share "th"; only two share the rare "qx".
  TfIdfModel model({"thqxa", "thqxb", "thccc", "thddd"}, 2);
  double rare = model.ScorePair("thqxa", "thqxb");
  double common = model.ScorePair("thccc", "thddd");
  EXPECT_GT(rare, common);
}

TEST(TfIdfTest, ScorePairSymmetricAndZeroForDisjoint) {
  TfIdfModel model({"abcd", "efgh", "ijkl"}, 2);
  EXPECT_DOUBLE_EQ(model.ScorePair("abcd", "efgh"),
                   model.ScorePair("efgh", "abcd"));
  EXPECT_DOUBLE_EQ(model.ScorePair("abcd", "ijkl"), 0.0);
}

TEST(TfIdfTest, CosineSelfSimilarityIsOne) {
  TfIdfModel model({"abcd", "efgh", "ijkl"}, 2);
  EXPECT_NEAR(model.CosinePair("abcd", "abcd"), 1.0, 1e-12);
}

TEST(TfIdfTest, CosineBounded) {
  Rng rng(11);
  std::vector<std::string> corpus;
  for (int i = 0; i < 40; ++i) corpus.push_back(rng.RandomString(8, "abcde"));
  TfIdfModel model(corpus, 2);
  for (int i = 0; i < 40; ++i) {
    std::string a = rng.RandomString(8, "abcde");
    std::string b = rng.RandomString(8, "abcde");
    double c = model.CosinePair(a, b);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace mcsm::text
